package main

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	securetf "github.com/securetf/securetf"
)

// The train-cnn job: the paper's Figure 8 cluster at a batch small
// enough that a run holds well over a hundred synchronous steps. Each
// worker computes on one thread, so the two workers fit the two cores
// of the host the benchmark targets.
const (
	trainWorkers = 2
	trainShards  = 2
	trainBatch   = 16
	trainShardN  = 512 // samples per worker shard, cycled
	trainLR      = 0.05
	trainThreads = 1
)

// trainCluster is a synchronous data-parallel job: one node per PS
// shard and per worker, TLS identities from the CAS.
type trainCluster struct {
	cl      *cluster
	nodes   []*securetf.Container
	ps      []*securetf.ParameterServer
	workers []*securetf.TrainingWorker
	// losses holds each round's mean worker loss; breakdowns each
	// worker step's phase split.
	losses     []float64
	breakdowns []securetf.TrainingBreakdown
}

// mnist generates n seeded training samples.
func mnist(seed int64, n int) (xs, ys *securetf.Tensor, err error) {
	fs := securetf.NewMemFS()
	if err := securetf.GenerateMNIST(fs, "mnist", n, 0, seed); err != nil {
		return nil, nil, err
	}
	return securetf.LoadMNIST(fs, "mnist/train-images-idx3-ubyte", "mnist/train-labels-idx1-ubyte")
}

func buildTrain(seed int64, sp spanRef) (tc *trainCluster, err error) {
	s := sp.child("datasets.generate")
	xs, ys, err := mnist(seed, trainWorkers*trainShardN)
	s.end()
	if err != nil {
		return nil, err
	}
	cl, err := newCluster(securetf.TensorFlowImage(), sp)
	if err != nil {
		return nil, err
	}
	tc = &trainCluster{cl: cl}
	defer func() {
		if err != nil {
			tc.close()
		}
	}()
	vars := securetf.InitialVariables(securetf.NewMNISTCNN(seed))
	var addrs []string
	for i := 0; i < trainShards; i++ {
		c, err := cl.launch(fmt.Sprintf("ps-%d", i), true, false, sp)
		if err != nil {
			return tc, err
		}
		tc.nodes = append(tc.nodes, c)
		s := sp.child("dist.StartParameterServer")
		ps, addr, err := securetf.StartParameterServer(c, "127.0.0.1:0", vars, trainWorkers, trainLR, securetf.WithShard(i, trainShards))
		s.end()
		if err != nil {
			return tc, err
		}
		tc.ps = append(tc.ps, ps)
		addrs = append(addrs, addr.String())
	}
	for i := 0; i < trainWorkers; i++ {
		c, err := cl.launch(fmt.Sprintf("worker-%d", i), true, false, sp)
		if err != nil {
			return tc, err
		}
		tc.nodes = append(tc.nodes, c)
		wx, err := securetf.SliceRows(xs, i*trainShardN, (i+1)*trainShardN)
		if err != nil {
			return tc, err
		}
		wy, err := securetf.SliceRows(ys, i*trainShardN, (i+1)*trainShardN)
		if err != nil {
			return tc, err
		}
		s := sp.child("dist.StartTrainingWorker")
		w, err := securetf.StartTrainingWorker(c, securetf.WorkerSpec{
			ID: i, Addrs: addrs, ServerName: "parameter-server",
			Model: securetf.NewMNISTCNN(seed), XS: wx, YS: wy, BatchSize: trainBatch, Threads: trainThreads,
		})
		s.end()
		if err != nil {
			return tc, err
		}
		tc.workers = append(tc.workers, w)
	}
	return tc, nil
}

// round runs one synchronous step on every worker and returns its wall
// time.
func (tc *trainCluster) round(tr *tracer) (time.Duration, error) {
	p := tr.root("train.round")
	errs := make([]error, len(tc.workers))
	var wg sync.WaitGroup
	for i, w := range tc.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.child("dist.BeginStep")
			err := w.BeginStep()
			s.end()
			if err != nil {
				errs[i] = err
				return
			}
			s = p.child("dist.FinishStep")
			errs[i] = w.FinishStep()
			s.end()
		}()
	}
	wg.Wait()
	d := p.end()
	if err := errors.Join(errs...); err != nil {
		return d, err
	}
	var loss float64
	for _, w := range tc.workers {
		loss += w.LastLoss
		tc.breakdowns = append(tc.breakdowns, w.LastBreakdown)
	}
	tc.losses = append(tc.losses, loss/float64(len(tc.workers)))
	return d, nil
}

func (tc *trainCluster) pushBytes() int64 {
	var n int64
	for _, w := range tc.workers {
		for _, b := range w.PushBytes() {
			n += b
		}
	}
	return n
}

// distLayers runs rounds traced rounds and reads the dist layer's
// spans, phase breakdowns and push volume.
func (tc *trainCluster) distLayers(rounds int, tr *tracer) (map[string]float64, error) {
	tc.breakdowns = nil
	before := tc.pushBytes()
	for i := 0; i < rounds; i++ {
		if _, err := tc.round(tr); err != nil {
			return nil, err
		}
	}
	return tc.readDist(tr.snapshot(), rounds, before), nil
}

func (tc *trainCluster) readDist(spans []span, rounds int, pushBefore int64) map[string]float64 {
	var pull, compute, push []float64
	for _, b := range tc.breakdowns {
		pull = append(pull, ms(b.Pull))
		compute = append(compute, ms(b.Compute))
		push = append(push, ms(b.Push))
	}
	return map[string]float64{
		"dist.begin_step_ms":     ms(medianDur(spans, "dist.BeginStep")),
		"dist.finish_step_ms":    ms(medianDur(spans, "dist.FinishStep")),
		"dist.vpull_ms":          percentile(pull, 50),
		"dist.vcompute_ms":       percentile(compute, 50),
		"dist.vpush_ms":          percentile(push, 50),
		"dist.push_kb_per_round": float64(tc.pushBytes()-pushBefore) / 1024 / float64(max(rounds, 1)),
	}
}

func (tc *trainCluster) close() {
	for _, w := range tc.workers {
		w.Close()
	}
	for _, ps := range tc.ps {
		ps.Close()
	}
	tc.cl.close()
}

type trainRun struct {
	tc *trainCluster
	// pushBefore is the push volume when the measured window began.
	pushBefore int64
	rounds     int
}

func setupTrain(seed int64, sp spanRef) (instance, error) {
	tc, err := buildTrain(seed, sp)
	if err != nil {
		return nil, err
	}
	return &trainRun{tc: tc}, nil
}

func (r *trainRun) prepare() error { return nil }

func (r *trainRun) warmup() error {
	for i := 0; i < 3; i++ {
		if _, err := r.tc.round(nil); err != nil {
			return err
		}
	}
	return nil
}

func (r *trainRun) measure(d time.Duration, tr *tracer) (*window, error) {
	nodes := r.tc.nodes
	cb, sb := clocks(nodes), stats(nodes)
	r.tc.breakdowns = nil
	r.pushBefore = r.tc.pushBytes()
	w := &window{per: trainWorkers * trainBatch}
	start := time.Now()
	for time.Since(start) < d {
		lat, err := r.tc.round(tr)
		w.attempted++
		if err != nil {
			// A failed synchronous step leaves the barrier in an unknown
			// state, so the run stops here.
			w.failed++
			w.lat = append(w.lat, math.Inf(1))
			w.errs = err
			break
		}
		w.lat = append(w.lat, ms(lat))
		w.done = append(w.done, time.Since(start))
	}
	w.elapsed = time.Since(start)
	w.vspan = makespan(cb, clocks(nodes))
	r.rounds = w.attempted - w.failed
	w.ops = float64(r.rounds * trainWorkers * trainBatch)
	w.layers = perOp(enclaveDelta(sb, stats(nodes)), int(w.ops))
	return w, nil
}

func (r *trainRun) layers(w *window, tr *tracer, seed int64) (map[string]float64, error) {
	m := w.layers
	for k, v := range r.tc.readDist(tr.snapshot(), r.rounds, r.pushBefore) {
		m[k] = v
	}
	xs, _, err := mnist(seed, trainBatch)
	if err != nil {
		return nil, err
	}
	lite, err := liteOf(securetf.NewMNISTCNN(seed), seed)
	if err != nil {
		return nil, err
	}
	p := opPoint{lite: lite, input: xs}
	if err := probeFleet(p, tr, m); err != nil {
		return nil, err
	}
	zeroFederated(m)
	return m, commonLayers(p, seed, tr, m)
}

// verify checks the job learned: the loss stays finite and the mean of
// the last rounds is below the mean of the first.
func (r *trainRun) verify() error {
	l := r.tc.losses
	if len(l) < 6 {
		return fmt.Errorf("only %d training rounds ran", len(l))
	}
	if slices.ContainsFunc(l, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }) {
		return errors.New("training loss is not finite")
	}
	first := (l[0] + l[1] + l[2]) / 3
	last := (l[len(l)-1] + l[len(l)-2] + l[len(l)-3]) / 3
	if last >= first {
		return fmt.Errorf("training loss did not fall: first rounds %.4f, last rounds %.4f", first, last)
	}
	fmt.Printf("training loss %.4f -> %.4f over %d rounds\n", first, last, len(l))
	return nil
}

func (r *trainRun) close() { r.tc.close() }
