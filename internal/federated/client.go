package federated

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tf/dist"
	"github.com/securetf/securetf/internal/vtime"
)

// ClientConfig configures one simulated federated client.
type ClientConfig struct {
	// ID is the client's identity in [0, Population). Required to be in
	// range; the coordinator refuses out-of-population ids.
	ID int
	// Addr is the coordinator endpoint. Required.
	Addr string
	// Dial opens the connection. Route it through the client's
	// container so the network shield's TLS applies. Defaults to
	// net.Dial.
	Dial func(network, addr string) (net.Conn, error)
	// Model is the client's local replica; Graph, X, Y and Loss are
	// required. Build every replica from the same seed as the
	// coordinator's variables.
	Model dist.Model
	// XS and YS are the client's private data shard. Required.
	XS, YS *tf.Tensor
	// BatchSize is the local minibatch size. Required, ≥ 1.
	BatchSize int
	// LocalSteps is the number of local SGD steps per round. Required,
	// ≥ 1.
	LocalSteps int
	// LocalLR is the local SGD learning rate. Required, > 0.
	LocalLR float64
	// Codec is the uplink quantizer; must match the coordinator's.
	Codec Codec
	// Population is the expected client population N; the handshake
	// verifies it.
	Population int
	// Secret is the cohort masking secret shared by all clients (and
	// withheld from the coordinator). Required unless Unmasked.
	Secret []byte
	// Unmasked disables pairwise masking; must match the coordinator.
	Unmasked bool
	// Clock is the client's virtual clock. Defaults to a fresh clock.
	Clock *vtime.Clock
	// Params supplies cost-model constants. The zero value falls back
	// to sgx.DefaultParams.
	Params sgx.Params
	// StepCost is the virtual compute time charged per local SGD step.
	// Zero means defaultStepCost.
	StepCost time.Duration
	// PollInterval is the virtual wait between polls when the client
	// has no work. Zero means defaultPollInterval.
	PollInterval time.Duration
	// MaxIdlePolls bounds consecutive no-work polls, turning a stuck
	// job (e.g. a quorum that can never fill) into an error instead of
	// a hang. Zero means 10000.
	MaxIdlePolls int
	// Delay injects extra virtual time after local training for the
	// given round — the straggler knob of the quorum tests.
	Delay func(round uint64) time.Duration
	// DropBeforePush simulates a mid-round failure: when it returns
	// true for a round the client trains, masks, then drops its
	// connection instead of uploading, rejoins, and sits the round out.
	// Fires at most once per round.
	DropBeforePush func(round uint64) bool
	// Turnstile, when set, serializes this client's network actions
	// with its peers in deterministic (virtual time, id) order — the
	// discrete-event mode that makes whole runs bit-reproducible. Nil
	// runs the client free-threaded.
	Turnstile *Turnstile
}

// ClientStats counts one client's lifetime events.
type ClientStats struct {
	// Applied is the number of rounds whose upload was accepted.
	Applied int
	// Refusals counts uploads refused because the round had closed at
	// quorum — this client straggled.
	Refusals int
	// Rejoins counts reconnects after injected drops.
	Rejoins int
	// Reveals counts seed reveals uploaded for dead peers.
	Reveals int
	// UplinkBytes totals the payload bytes of this client's uploads,
	// accepted or not.
	UplinkBytes int64
}

// Client is one simulated federated participant: it polls the
// coordinator for round assignments, trains locally on its private
// shard, masks and uploads its quantized update, and reveals pair
// seeds when the coordinator reports dead cohort members.
type Client struct {
	cfg          ClientConfig
	conn         net.Conn
	sess         *tf.Session
	lossAndGrads []*tf.Node
	gradNames    []string // sorted: the wire walk order of every mask stream
	residuals    map[string][]float32
	stats        ClientStats

	// droppedRound marks the round this client trained but dropped out
	// of; a re-assignment of the same round is sat out so the quorum
	// membership stays exactly the surviving uploaders.
	droppedRound uint64
	hasDropped   bool
}

// NewClient validates cfg, dials the coordinator and completes the
// manifest handshake.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Model.Graph == nil || cfg.Model.X == nil || cfg.Model.Y == nil || cfg.Model.Loss == nil {
		return nil, errors.New("federated: ClientConfig.Model requires Graph, X, Y and Loss")
	}
	if cfg.XS == nil || cfg.YS == nil {
		return nil, errors.New("federated: ClientConfig.XS and YS are required")
	}
	if cfg.Addr == "" {
		return nil, errors.New("federated: ClientConfig.Addr is required")
	}
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("federated: ClientConfig.BatchSize must be ≥ 1, got %d", cfg.BatchSize)
	}
	if cfg.LocalSteps < 1 {
		return nil, fmt.Errorf("federated: ClientConfig.LocalSteps must be ≥ 1, got %d", cfg.LocalSteps)
	}
	if cfg.LocalLR <= 0 {
		return nil, fmt.Errorf("federated: ClientConfig.LocalLR must be > 0, got %v", cfg.LocalLR)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Population {
		return nil, fmt.Errorf("federated: client id %d outside the population of %d", cfg.ID, cfg.Population)
	}
	if err := cfg.Codec.validate(); err != nil {
		return nil, err
	}
	if !cfg.Unmasked && len(cfg.Secret) == 0 {
		return nil, errors.New("federated: ClientConfig.Secret is required for masked aggregation")
	}
	if cfg.Dial == nil {
		cfg.Dial = net.Dial
	}
	if cfg.Clock == nil {
		cfg.Clock = &vtime.Clock{}
	}
	if cfg.Params.WireBandwidth == 0 {
		cfg.Params = sgx.DefaultParams()
	}
	if cfg.StepCost == 0 {
		cfg.StepCost = defaultStepCost
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = defaultPollInterval
	}
	if cfg.MaxIdlePolls == 0 {
		cfg.MaxIdlePolls = 10000
	}

	vars, grads, err := tf.GradientNodes(cfg.Model.Graph, cfg.Model.Loss)
	if err != nil {
		return nil, fmt.Errorf("federated: client %d gradient subgraph: %w", cfg.ID, err)
	}
	if len(grads) == 0 {
		return nil, errors.New("federated: model loss depends on no variables")
	}
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.Name()
	}
	sort.Strings(names)
	// Re-align the gradient fetch plan with the sorted names.
	byName := make(map[string]*tf.Node, len(vars))
	for i, v := range vars {
		byName[v.Name()] = grads[i]
	}
	plan := []*tf.Node{cfg.Model.Loss}
	for _, name := range names {
		plan = append(plan, byName[name])
	}

	c := &Client{
		cfg:          cfg,
		sess:         tf.NewSession(cfg.Model.Graph, tf.WithSeed(int64(cfg.ID)+1)),
		lossAndGrads: plan,
		gradNames:    names,
		residuals:    make(map[string][]float32, len(names)),
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// Stats returns the client's event counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Close drops the coordinator connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// connect dials the coordinator and runs the manifest handshake,
// verifying population, codec, masking mode and the variable manifest.
// Rejoin after a drop is the same handshake.
func (c *Client) connect() error {
	conn, err := c.cfg.Dial("tcp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("federated: client %d dial %s: %w", c.cfg.ID, c.cfg.Addr, err)
	}
	req := &dist.Message{
		Kind:   dist.MsgHello,
		Worker: uint32(c.cfg.ID),
		Shards: uint32(c.cfg.Population),
		Policy: maskedPolicy(c.cfg.Unmasked),
		Codec:  uint8(c.cfg.Codec.Kind),
		TopK:   c.cfg.Codec.param(),
	}
	resp, err := c.roundTrip(conn, req)
	if err != nil {
		conn.Close()
		return fmt.Errorf("federated: client %d handshake: %w", c.cfg.ID, err)
	}
	if resp.Kind != dist.MsgManifest {
		conn.Close()
		return fmt.Errorf("federated: client %d handshake got message kind %d", c.cfg.ID, resp.Kind)
	}
	if !resp.OK {
		conn.Close()
		return errors.New(resp.Err)
	}
	if len(resp.Names) != len(c.gradNames) {
		conn.Close()
		return fmt.Errorf("federated: coordinator serves %d variables, client model has %d",
			len(resp.Names), len(c.gradNames))
	}
	for i, name := range resp.Names {
		if name != c.gradNames[i] {
			conn.Close()
			return fmt.Errorf("federated: coordinator manifest has %q where the client model has %q",
				name, c.gradNames[i])
		}
	}
	c.conn = conn
	return nil
}

// roundTrip sends one request and reads the reply, charging the wire
// and half a LAN round trip on the client's clock.
func (c *Client) roundTrip(conn net.Conn, req *dist.Message) (*dist.Message, error) {
	if _, err := dist.Send(conn, c.cfg.Clock, c.cfg.Params, req); err != nil {
		return nil, err
	}
	c.cfg.Clock.Advance(c.cfg.Params.LANRTT / 2)
	return dist.Receive(conn, c.cfg.Clock, c.cfg.Params)
}

// Run participates until the coordinator reports training complete.
// Every network action is taken under a turnstile turn when one is
// configured, so concurrent clients interleave deterministically. The
// connection stays open until Close: a client hanging up mid-job would
// charge the coordinator's teardown to its clock at a wall-clock moment,
// in between the peers it is still serving.
func (c *Client) Run() error {
	if c.cfg.Turnstile != nil {
		c.cfg.Turnstile.Join(c.cfg.ID, c.cfg.Clock)
		defer c.cfg.Turnstile.Leave(c.cfg.ID)
	}
	idle := 0
	for {
		release := c.cfg.Turnstile.turn(c.cfg.ID)
		resp, err := c.roundTrip(c.conn, &dist.Message{Kind: dist.MsgFedPoll, Worker: uint32(c.cfg.ID)})
		if err != nil {
			release()
			return fmt.Errorf("federated: client %d poll: %w", c.cfg.ID, err)
		}
		switch {
		case resp.Kind == dist.MsgAck && resp.Err == trainingCompleteErr:
			release()
			return nil
		case resp.Kind == dist.MsgAck:
			release()
			return fmt.Errorf("federated: client %d poll refused: %s", c.cfg.ID, resp.Err)
		case resp.Kind == dist.MsgFedUnmask:
			err := c.reveal(resp)
			release()
			if err != nil {
				return err
			}
			idle = 0
		case resp.Kind == dist.MsgFedRound && resp.Closed,
			resp.Kind == dist.MsgFedRound && c.hasDropped && resp.Round == c.droppedRound:
			// No work: the round is closing, we are not sampled, or we
			// dropped out of this round and must sit out its re-assignment
			// so the quorum membership stays the surviving uploaders.
			c.cfg.Clock.Advance(c.cfg.PollInterval)
			release()
			idle++
			if idle > c.cfg.MaxIdlePolls {
				return fmt.Errorf("federated: client %d made no progress in %d polls", c.cfg.ID, idle)
			}
		case resp.Kind == dist.MsgFedRound:
			idle = 0
			err := c.runRound(resp, release)
			if err != nil {
				return err
			}
		default:
			release()
			return fmt.Errorf("federated: client %d poll got message kind %d", c.cfg.ID, resp.Kind)
		}
	}
}

// runRound executes one assignment: install the globals, train
// locally, quantize + mask the delta, and upload — or drop out if the
// failure injection says so. The poll turn (release) is held through
// local training so the upload's virtual send time includes the
// compute; the upload itself is a fresh turn, which is what lets a
// straggler's delayed push sort after its peers' punctual ones.
func (c *Client) runRound(asg *dist.Message, release func()) error {
	round := asg.Round
	base := make(map[string][]float32, len(c.gradNames))
	for _, name := range c.gradNames {
		t, ok := asg.Vars[name]
		if !ok {
			release()
			return fmt.Errorf("federated: round %d assignment is missing variable %q", round, name)
		}
		base[name] = append([]float32(nil), t.Floats()...)
		if err := c.sess.SetVariable(name, t); err != nil {
			release()
			return err
		}
	}
	if err := c.localSteps(); err != nil {
		release()
		return err
	}
	c.cfg.Clock.Advance(time.Duration(c.cfg.LocalSteps) * c.cfg.StepCost)
	if c.cfg.Delay != nil {
		c.cfg.Clock.Advance(c.cfg.Delay(round))
	}

	// Quantize the round delta (with carried residual) into ring words
	// at the round's shared coordinate pattern.
	updates := make(map[string][]uint64, len(c.gradNames))
	pending := make(map[string][]float32, len(c.gradNames))
	for _, name := range c.gradNames {
		t, err := c.sess.Variable(name)
		if err != nil {
			release()
			return err
		}
		now := t.Floats()
		delta := make([]float32, len(now))
		for i := range delta {
			delta[i] = now[i] - base[name][i]
		}
		coords := c.cfg.Codec.coords(asg.Seed, name, len(delta))
		words, newRes := c.cfg.Codec.encodeVar(delta, c.residuals[name], coords)
		updates[name] = words
		pending[name] = newRes
	}
	if !c.cfg.Unmasked {
		applyPairMasks(updates, c.gradNames, c.cfg.Codec.width(),
			c.cfg.Secret, uint32(c.cfg.ID), asg.Clients, round)
	}

	if c.cfg.DropBeforePush != nil && !(c.hasDropped && c.droppedRound == round) && c.cfg.DropBeforePush(round) {
		// Injected failure: drop the connection instead of uploading,
		// then rejoin. Residuals stay uncommitted — nothing was sent.
		c.Close()
		release()
		c.hasDropped, c.droppedRound = true, round
		c.stats.Rejoins++
		return c.connect()
	}
	release()

	// The upload is its own turnstile turn at the post-training clock,
	// so punctual cohort peers upload first and a straggler meets the
	// closed round exactly as the virtual timeline says it should.
	pushRelease := c.cfg.Turnstile.turn(c.cfg.ID)
	defer pushRelease()
	req := &dist.Message{Kind: dist.MsgFedPush, Worker: uint32(c.cfg.ID), Round: round,
		Grads: make(map[string][]byte, len(updates))}
	for name, words := range updates {
		blob := c.cfg.Codec.marshalUpdate(words)
		req.Grads[name] = blob
		c.stats.UplinkBytes += int64(len(blob))
	}
	ack, err := c.roundTrip(c.conn, req)
	if err != nil {
		return fmt.Errorf("federated: client %d push: %w", c.cfg.ID, err)
	}
	if ack.Kind != dist.MsgAck {
		return fmt.Errorf("federated: client %d push got message kind %d", c.cfg.ID, ack.Kind)
	}
	switch {
	case ack.OK:
		// Applied: commit the error-feedback residuals.
		for name, res := range pending {
			c.residuals[name] = res
		}
		c.stats.Applied++
	case ack.Closed:
		// Straggled past the quorum: retryable, residuals untouched —
		// the mass this upload carried was never applied, so it stays
		// in the next round's delta.
		c.stats.Refusals++
	default:
		return fmt.Errorf("federated: client %d push rejected: %s", c.cfg.ID, ack.Err)
	}
	return nil
}

// localSteps runs the round's local SGD on the private shard.
func (c *Client) localSteps() error {
	n := c.cfg.XS.Shape()[0]
	for s := 0; s < c.cfg.LocalSteps; s++ {
		lo := (s * c.cfg.BatchSize) % n
		hi := lo + c.cfg.BatchSize
		if hi > n {
			hi = n
		}
		bx, err := sliceRows(c.cfg.XS, lo, hi)
		if err != nil {
			return err
		}
		by, err := sliceRows(c.cfg.YS, lo, hi)
		if err != nil {
			return err
		}
		out, err := c.sess.Run(tf.Feeds{c.cfg.Model.X: bx, c.cfg.Model.Y: by}, c.lossAndGrads, tf.Training())
		if err != nil {
			return err
		}
		for i, name := range c.gradNames {
			v, err := c.sess.Variable(name)
			if err != nil {
				return err
			}
			vals := append([]float32(nil), v.Floats()...)
			g := out[i+1].Floats()
			for j := range vals {
				vals[j] -= float32(c.cfg.LocalLR) * g[j]
			}
			t, err := tf.FromFloats(v.Shape(), vals)
			if err != nil {
				return err
			}
			if err := c.sess.SetVariable(name, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// reveal answers an unmask request: upload the pair seeds this client
// shares with every dead cohort member, so the coordinator can cancel
// the masks the dead left behind.
func (c *Client) reveal(req *dist.Message) error {
	msg := &dist.Message{Kind: dist.MsgFedSeeds, Worker: uint32(c.cfg.ID), Round: req.Round,
		Grads: make(map[string][]byte, len(req.Clients))}
	for _, deadID := range req.Clients {
		seed := pairSeed(c.cfg.Secret, uint32(c.cfg.ID), deadID)
		msg.Grads[strconv.FormatUint(uint64(deadID), 10)] = append([]byte(nil), seed[:]...)
	}
	ack, err := c.roundTrip(c.conn, msg)
	if err != nil {
		return fmt.Errorf("federated: client %d reveal: %w", c.cfg.ID, err)
	}
	if ack.Kind != dist.MsgAck || !ack.OK {
		return fmt.Errorf("federated: client %d reveal rejected: %s", c.cfg.ID, ack.Err)
	}
	c.stats.Reveals += len(req.Clients)
	return nil
}

// sliceRows returns rows [lo, hi) of a tensor's leading dimension as a
// fresh tensor.
func sliceRows(t *tf.Tensor, lo, hi int) (*tf.Tensor, error) {
	shape := t.Shape()
	if len(shape) == 0 {
		return nil, errors.New("federated: cannot slice a scalar")
	}
	rows := shape[0]
	if lo < 0 || hi > rows || lo >= hi {
		return nil, fmt.Errorf("federated: row slice [%d, %d) of %d rows", lo, hi, rows)
	}
	rowSize := 1
	for _, d := range shape[1:] {
		rowSize *= d
	}
	outShape := append(tf.Shape{hi - lo}, shape[1:]...)
	return tf.FromFloats(outShape, t.Floats()[lo*rowSize:hi*rowSize])
}
