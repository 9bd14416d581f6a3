package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/vtime"
)

// Message kinds of the parameter-exchange protocol.
const (
	msgPull     uint8 = iota + 1 // worker → PS: request current variables
	msgVars                      // PS → worker: variable snapshot
	msgPush                      // worker → PS: gradient contribution
	msgAck                       // PS → worker: round committed (or aborted)
	msgHello                     // worker → PS: expected shard id/count handshake
	msgManifest                  // PS → worker: shard id/count + owned-variable manifest

	// Federated round protocol (internal/federated). Clients drive every
	// exchange; the coordinator only ever answers, so its serve loop
	// never blocks on a peer.
	msgFedPoll   // client → coordinator: ask for work (round assignment)
	msgFedRound  // coordinator → client: round assignment, wait, or done
	msgFedUnmask // coordinator → client: reveal pair seeds for dead clients
	msgFedPush   // client → coordinator: masked model update for a round
	msgFedSeeds  // client → coordinator: pair-seed reveal for dead clients
)

// maxFrame bounds protocol frames on the wire (the MNIST CNN's
// variables are ~2 MB; 1 GiB leaves room for any model the zoo builds).
const maxFrame = 1 << 30

// message is the decoded form of one protocol frame.
//
// Stamp carries the sender's virtual clock (nanoseconds) at send time,
// after charging wire serialization; the receiver advances to
// Stamp + LANRTT/2 so virtual time is causally consistent across nodes
// without a global clock.
type message struct {
	Kind   uint8
	Stamp  int64
	Worker uint32
	// Round is the PS's barrier generation (sync) or variable version
	// (async): handed out with each variable snapshot (msgVars) and
	// echoed back on the matching push. In sync mode a push for a round
	// that has already committed or aborted is rejected instead of
	// silently seeding the next round with stale gradients; in async
	// mode a push whose version lags the shard's current one by more
	// than the staleness bound is rejected for retry.
	Round uint64
	// Step is the pushing worker's local step counter, carried on every
	// push so the parameter server can account per-worker progress (the
	// bounded-staleness experiments read it back via WorkerSteps).
	Step uint64
	// Shard and Shards carry the shard-placement handshake: on msgHello
	// the worker's expectation of the endpoint it dialed, on msgManifest
	// the parameter-server shard's actual identity. A mismatch means a
	// mis-sharded or partially started cluster and fails the connection
	// up front instead of letting a round hang on a wrong barrier.
	Shard  uint32
	Shards uint32
	// Policy and Staleness carry the shard's ConsistencyPolicy through
	// the handshake: on msgHello the worker's expectation, on
	// msgManifest the shard's actual policy. A mismatch — a worker
	// configured sync against an async shard, or for a different
	// staleness bound — fails the connection up front, so mixed-policy
	// clusters cannot strand one side on a barrier the other never
	// fills.
	Policy    uint8
	Staleness int64
	// Names is the sorted manifest of variable names this shard owns
	// (msgManifest), so the worker can verify the name-hash placement it
	// computed locally matches the server's before any round starts.
	Names []string
	// Codec and TopK carry the cluster's gradient Compression through
	// the handshake exactly like the consistency policy: on msgHello the
	// codec the worker will push with, on msgManifest the codec the
	// shard decodes. A mismatch fails the connection up front — a
	// mixed-codec cluster would corrupt gradients silently, so it must
	// not connect at all. TopK is the fraction's IEEE-754 bits, so the
	// comparison is exact.
	Codec uint8
	TopK  uint64
	// Vars carries the variable snapshot (msgVars) or the gradient
	// contribution (msgPush), keyed by variable name.
	Vars map[string]*tf.Tensor
	// Grads carries the compressed gradient contribution (msgPush under
	// a non-None codec), keyed by variable name: one self-describing
	// blob per tensor in the compress format. Exactly one of Vars and
	// Grads is populated on a push.
	Grads map[string][]byte
	// OK and Err report round commit or abort (msgAck) and handshake
	// acceptance (msgManifest). Stale marks an async rejection for
	// exceeding the staleness bound — the one retryable failure: the
	// worker re-pulls, recomputes and pushes again rather than aborting
	// the job.
	OK    bool
	Stale bool
	Err   string
	// Closed marks a federated round refusal: the round the client
	// pushed (or polled) for has already completed at quorum. Like Stale
	// it is the retryable failure of its protocol — the client moves on
	// to the next round's poll instead of aborting. A late update for a
	// closed round must be refused outright: once the dead clients' pair
	// seeds have been revealed, accepting the straggler's masked payload
	// would let the coordinator unmask it.
	Closed bool
	// Seed is the per-round pattern seed of a federated round assignment
	// (msgFedRound): both sides expand it through the deterministic PRG
	// to the round's shared top-k coordinate pattern, so sparsification
	// costs no index bytes on the wire and every cohort member masks the
	// same coordinates.
	Seed uint64
	// Clients carries a federated client-id set: the round's sampled
	// cohort on msgFedRound, the dead clients awaiting unmasking on
	// msgFedUnmask. Always sorted ascending.
	Clients []uint32
	// Evicted marks an elasticity event on an elastic synchronous
	// shard. On msgAck it is the retryable-in-spirit rejection of the
	// barrier-shrink protocol: the pushing worker was declared dead
	// when a round timed out (or is awaiting fold-in after rejoining),
	// so its gradient was dropped — the worker re-runs the manifest
	// handshake to rejoin and its next step contributes again. On
	// msgManifest it acknowledges a rejoin: the shard recognized a
	// previously evicted worker and seats it at the barrier at the next
	// round boundary.
	Evicted bool
}

// encode serializes the message payload (everything after the length
// prefix).
func (m *message) encode() []byte {
	var buf bytes.Buffer
	buf.WriteByte(m.Kind)
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], uint64(m.Stamp))
	buf.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], m.Worker)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint64(scratch[:], m.Round)
	buf.Write(scratch[:])
	binary.LittleEndian.PutUint64(scratch[:], m.Step)
	buf.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], m.Shard)
	buf.Write(scratch[:4])
	binary.LittleEndian.PutUint32(scratch[:4], m.Shards)
	buf.Write(scratch[:4])
	buf.WriteByte(m.Policy)
	binary.LittleEndian.PutUint64(scratch[:], uint64(m.Staleness))
	buf.Write(scratch[:])
	if m.OK {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	if m.Stale {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	writeString(&buf, m.Err)
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Names)))
	buf.Write(scratch[:4])
	for _, name := range m.Names {
		writeString(&buf, name)
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Vars)))
	buf.Write(scratch[:4])
	// Deterministic iteration is not required on the wire; the decoder
	// rebuilds the map.
	for name, t := range m.Vars {
		writeString(&buf, name)
		enc := tf.EncodeTensor(t)
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(enc)))
		buf.Write(scratch[:4])
		buf.Write(enc)
	}
	buf.WriteByte(m.Codec)
	binary.LittleEndian.PutUint64(scratch[:], m.TopK)
	buf.Write(scratch[:])
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Grads)))
	buf.Write(scratch[:4])
	for name, blob := range m.Grads {
		writeString(&buf, name)
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(blob)))
		buf.Write(scratch[:4])
		buf.Write(blob)
	}
	// The federated fields are a trailing extension, written only when
	// one of them is set: frames of the worker/PS protocol stay
	// byte-identical to the pre-federated format, and the decoder reads
	// end-of-payload as all-zero. The elasticity flag is a second
	// trailing extension after the federated one — when it is set the
	// federated block is written too (the decoder reads the extensions
	// in order), and when both are clear neither is written, so
	// pre-elastic frames stay byte-identical as well.
	if m.Closed || m.Seed != 0 || len(m.Clients) > 0 || m.Evicted {
		if m.Closed {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		binary.LittleEndian.PutUint64(scratch[:], m.Seed)
		buf.Write(scratch[:])
		binary.LittleEndian.PutUint32(scratch[:4], uint32(len(m.Clients)))
		buf.Write(scratch[:4])
		for _, id := range m.Clients {
			binary.LittleEndian.PutUint32(scratch[:4], id)
			buf.Write(scratch[:4])
		}
	}
	if m.Evicted {
		buf.WriteByte(1)
	}
	return buf.Bytes()
}

func writeString(buf *bytes.Buffer, s string) {
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], uint32(len(s)))
	buf.Write(scratch[:])
	buf.WriteString(s)
}

// decode parses a payload produced by encode.
func decode(payload []byte) (*message, error) {
	r := bytes.NewReader(payload)
	var m message
	var err error
	if m.Kind, err = r.ReadByte(); err != nil {
		return nil, fmt.Errorf("dist: truncated message kind: %w", err)
	}
	var u64 uint64
	if u64, err = readUint(r, 8); err != nil {
		return nil, err
	}
	m.Stamp = int64(u64)
	if u64, err = readUint(r, 4); err != nil {
		return nil, err
	}
	m.Worker = uint32(u64)
	if m.Round, err = readUint(r, 8); err != nil {
		return nil, err
	}
	if m.Step, err = readUint(r, 8); err != nil {
		return nil, err
	}
	if u64, err = readUint(r, 4); err != nil {
		return nil, err
	}
	m.Shard = uint32(u64)
	if u64, err = readUint(r, 4); err != nil {
		return nil, err
	}
	m.Shards = uint32(u64)
	if m.Policy, err = r.ReadByte(); err != nil {
		return nil, fmt.Errorf("dist: truncated policy byte: %w", err)
	}
	if u64, err = readUint(r, 8); err != nil {
		return nil, err
	}
	m.Staleness = int64(u64)
	okByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: truncated ok flag: %w", err)
	}
	m.OK = okByte != 0
	staleByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: truncated stale flag: %w", err)
	}
	m.Stale = staleByte != 0
	if m.Err, err = readString(r); err != nil {
		return nil, err
	}
	nameCount, err := readUint(r, 4)
	if err != nil {
		return nil, err
	}
	// Each manifest entry takes at least its length prefix; a count
	// beyond that is a corrupt frame, not an allocation hint to honour.
	if nameCount > uint64(r.Len())/4 {
		return nil, fmt.Errorf("dist: manifest count %d exceeds remaining payload", nameCount)
	}
	for i := uint64(0); i < nameCount; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		m.Names = append(m.Names, name)
	}
	count, err := readUint(r, 4)
	if err != nil {
		return nil, err
	}
	// Every entry takes at least its two length prefixes; a count beyond
	// that is a corrupt frame, not an allocation hint to honour.
	if count > uint64(r.Len())/8 {
		return nil, fmt.Errorf("dist: variable count %d exceeds remaining payload", count)
	}
	if count > 0 {
		m.Vars = make(map[string]*tf.Tensor, count)
	}
	for i := uint64(0); i < count; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		n, err := readUint(r, 4)
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Len()) {
			return nil, fmt.Errorf("dist: tensor %q of %d bytes exceeds remaining payload", name, n)
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, err
		}
		t, err := tf.DecodeTensor(raw)
		if err != nil {
			return nil, fmt.Errorf("dist: tensor %q: %w", name, err)
		}
		m.Vars[name] = t
	}
	if m.Codec, err = r.ReadByte(); err != nil {
		return nil, fmt.Errorf("dist: truncated codec byte: %w", err)
	}
	if m.TopK, err = readUint(r, 8); err != nil {
		return nil, err
	}
	gradCount, err := readUint(r, 4)
	if err != nil {
		return nil, err
	}
	// Each compressed entry takes at least its two length prefixes; a
	// count beyond that is a corrupt frame, not an allocation hint.
	if gradCount > uint64(r.Len())/8 {
		return nil, fmt.Errorf("dist: compressed gradient count %d exceeds remaining payload", gradCount)
	}
	if gradCount > 0 {
		m.Grads = make(map[string][]byte, gradCount)
	}
	for i := uint64(0); i < gradCount; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		n, err := readUint(r, 4)
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Len()) {
			return nil, fmt.Errorf("dist: compressed gradient %q of %d bytes exceeds remaining payload", name, n)
		}
		blob := make([]byte, n)
		if _, err := io.ReadFull(r, blob); err != nil {
			return nil, err
		}
		m.Grads[name] = blob
	}
	// Trailing federated extension: absent on frames of the worker/PS
	// protocol (see encode), in which case the fields stay zero.
	if r.Len() == 0 {
		return &m, nil
	}
	closedByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: truncated closed flag: %w", err)
	}
	m.Closed = closedByte != 0
	if m.Seed, err = readUint(r, 8); err != nil {
		return nil, err
	}
	clientCount, err := readUint(r, 4)
	if err != nil {
		return nil, err
	}
	// Each client id is exactly four bytes; a larger count is a corrupt
	// frame, not an allocation hint to honour.
	if clientCount > uint64(r.Len())/4 {
		return nil, fmt.Errorf("dist: client count %d exceeds remaining payload", clientCount)
	}
	for i := uint64(0); i < clientCount; i++ {
		id, err := readUint(r, 4)
		if err != nil {
			return nil, err
		}
		m.Clients = append(m.Clients, uint32(id))
	}
	// Trailing elasticity extension (see encode): absent on pre-elastic
	// frames, which read end-of-payload as false.
	if r.Len() == 0 {
		return &m, nil
	}
	evictedByte, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("dist: truncated evicted flag: %w", err)
	}
	m.Evicted = evictedByte != 0
	return &m, nil
}

func readUint(r *bytes.Reader, width int) (uint64, error) {
	var scratch [8]byte
	if _, err := io.ReadFull(r, scratch[:width]); err != nil {
		return 0, fmt.Errorf("dist: truncated message: %w", err)
	}
	if width == 4 {
		return uint64(binary.LittleEndian.Uint32(scratch[:4])), nil
	}
	return binary.LittleEndian.Uint64(scratch[:]), nil
}

func readString(r *bytes.Reader) (string, error) {
	n, err := readUint(r, 4)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("dist: string of %d bytes exceeds remaining payload", n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return "", err
	}
	return string(raw), nil
}

// wirePolicy flattens a policy into its two wire fields.
func wirePolicy(p ConsistencyPolicy) (uint8, int64) {
	p = p.normalize()
	return uint8(p.Kind), int64(p.Staleness)
}

// policyFromWire rebuilds a normalized policy from the wire fields.
func policyFromWire(kind uint8, staleness int64) ConsistencyPolicy {
	return ConsistencyPolicy{Kind: ConsistencyKind(kind), Staleness: int(staleness)}.normalize()
}

// send serializes m onto conn as a length-prefixed frame, charging wire
// serialization to clock and stamping the message with the resulting
// virtual time. The propagation half-RTT is accounted on the receiving
// side (AdvanceTo(stamp + LANRTT/2)), matching the CAS convention so
// latency is never double-counted. It reports the total frame size in
// bytes (header + payload), so callers can account the wire volume a
// codec saves independently of the bandwidth cost model.
func send(conn net.Conn, clock *vtime.Clock, params sgx.Params, m *message) (int, error) {
	payload := m.encode()
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("dist: frame of %d bytes exceeds limit", len(payload))
	}
	clock.Advance(sgx.TimeAtThroughput(float64(len(payload)+4), params.WireBandwidth))
	// Stamp after charging serialization; the stamp sits at a fixed
	// offset right after the kind byte.
	binary.LittleEndian.PutUint64(payload[1:9], uint64(clock.Now()))
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := conn.Write(payload); err != nil {
		return 0, err
	}
	return len(hdr) + len(payload), nil
}

// Exported wire API. internal/federated speaks the same framed
// protocol — vtime-stamped frames, the hello/manifest handshake idiom,
// the retryable-flag acks — with the msgFed* kinds, so the frame codec
// and its fuzz hardening are shared rather than reimplemented.
type Message = message

// Federated message kinds and the handshake/ack kinds the federated
// protocol reuses.
const (
	MsgAck       = msgAck
	MsgHello     = msgHello
	MsgManifest  = msgManifest
	MsgFedPoll   = msgFedPoll
	MsgFedRound  = msgFedRound
	MsgFedUnmask = msgFedUnmask
	MsgFedPush   = msgFedPush
	MsgFedSeeds  = msgFedSeeds
)

// Send frames and sends m on conn (see send).
func Send(conn net.Conn, clock *vtime.Clock, params sgx.Params, m *Message) (int, error) {
	return send(conn, clock, params, m)
}

// Receive reads one frame from conn (see receive).
func Receive(conn net.Conn, clock *vtime.Clock, params sgx.Params) (*Message, error) {
	return receive(conn, clock, params)
}

// receive reads one frame from conn and advances clock to the causally
// consistent time (sender stamp plus half a LAN round trip).
func receive(conn net.Conn, clock *vtime.Clock, params sgx.Params) (*message, error) {
	var hdr [4]byte
	if _, err := readFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := readFull(conn, payload); err != nil {
		return nil, err
	}
	m, err := decode(payload)
	if err != nil {
		return nil, err
	}
	clock.AdvanceTo(time.Duration(m.Stamp) + params.LANRTT/2)
	return m, nil
}

// readFull fills p from conn, as one syscall when the runtime's
// connection offers it (scone's ReadFull), so the virtual cost of a
// frame does not depend on how the kernel chunked its bytes.
func readFull(conn net.Conn, p []byte) (int, error) {
	if rf, ok := conn.(interface{ ReadFull([]byte) (int, error) }); ok {
		return rf.ReadFull(p)
	}
	return io.ReadFull(conn, p)
}
