package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	securetf "github.com/securetf/securetf"
)

// The fed-secagg job: half of a 64-client population sampled per
// round, with a quorum below the 32-member cohort so the refusal and
// seed-reveal path runs every round; dense uploads.
const (
	fedClients  = 64
	fedFraction = 0.5
	fedCohort   = 32
	fedQuorum   = 28
	fedBatch    = 20
	fedLR       = 0.05
	// fedRounds per TrainFederated job; each job is one latency sample.
	fedRounds = 1
)

type fedRun struct {
	seed   int64
	shards [][2]*securetf.Tensor
	jobs   int
	// Totals over the last measured window.
	rounds, accepted, refusals, reveals int
	uplink                              int64
	verr                                error
}

func setupFed(seed int64, sp spanRef) (instance, error) {
	r := &fedRun{seed: seed}
	s := sp.child("datasets.generate")
	defer s.end()
	for c := 0; c < fedClients; c++ {
		xs, ys, err := mnist(seed*1000+int64(c), fedBatch)
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, [2]*securetf.Tensor{xs, ys})
	}
	return r, nil
}

func (r *fedRun) prepare() error { return nil }

// job runs one federated job and checks it: every round commits, and
// quorum cut each round short so refusals and seed reveals happened.
func (r *fedRun) job(tr *tracer) (*securetf.FederatedResult, time.Duration, error) {
	r.jobs++
	s := tr.root("federated.TrainFederated")
	res, err := securetf.TrainFederated(securetf.FederatedConfig{
		Clients:        fedClients,
		SampleFraction: fedFraction,
		Quorum:         fedQuorum,
		Rounds:         fedRounds,
		LocalSteps:     1,
		BatchSize:      fedBatch,
		LocalLR:        fedLR,
		Compression:    securetf.NoFedCompression(),
		Seed:           r.seed*1000 + int64(r.jobs),
		NewModel:       func() securetf.Model { return securetf.NewMNISTMLP(r.seed) },
		ShardData: func(c int) (*securetf.Tensor, *securetf.Tensor, error) {
			return r.shards[c][0], r.shards[c][1], nil
		},
	})
	d := s.end()
	if err != nil {
		return nil, d, err
	}
	switch {
	case res.Rounds != fedRounds:
		r.verr = fmt.Errorf("federated job committed %d of %d rounds", res.Rounds, fedRounds)
	case res.Refusals == 0 || res.Reveals == 0:
		r.verr = fmt.Errorf("quorum never cut a round short (refusals %d, reveals %d)", res.Refusals, res.Reveals)
	}
	for name, v := range res.Vars {
		for _, x := range v.Floats() {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				r.verr = fmt.Errorf("federated variable %s is not finite", name)
				break
			}
		}
	}
	return res, d, nil
}

func (r *fedRun) warmup() error {
	_, _, err := r.job(nil)
	return err
}

func (r *fedRun) measure(d time.Duration, tr *tracer) (*window, error) {
	w := &window{per: fedRounds}
	r.rounds, r.accepted, r.refusals, r.reveals, r.uplink = 0, 0, 0, 0, 0
	start := time.Now()
	for time.Since(start) < d {
		w.attempted += fedRounds
		res, lat, err := r.job(tr)
		if err != nil {
			w.failed += fedRounds
			w.lat = append(w.lat, math.Inf(1))
			w.errs = errors.Join(w.errs, err)
			continue
		}
		w.lat = append(w.lat, ms(lat)/fedRounds)
		w.done = append(w.done, time.Since(start))
		w.vspan += res.Latency
		r.rounds += res.Rounds
		r.accepted += res.Accepted
		r.refusals += res.Refusals
		r.reveals += res.Reveals
		r.uplink += res.UplinkBytes
	}
	w.elapsed = time.Since(start)
	w.ops = float64(r.rounds)
	// TrainFederated owns its aggregator container, so its enclave
	// counters are not observable from outside.
	w.layers = perOp(securetf.EnclaveStats{}, 1)
	return w, nil
}

func (r *fedRun) layers(w *window, tr *tracer, seed int64) (map[string]float64, error) {
	m := w.layers
	rounds := float64(max(r.rounds, 1))
	m["federated.uplink_kb_per_round"] = float64(r.uplink) / 1024 / rounds
	m["federated.accept_ratio"] = float64(r.accepted) / float64(max(r.accepted+r.refusals, 1))
	m["federated.reveals_per_round"] = float64(r.reveals) / rounds
	lite, err := liteOf(securetf.NewMNISTMLP(seed), seed)
	if err != nil {
		return nil, err
	}
	p := opPoint{lite: lite, input: r.shards[0][0]}
	if err := probeFleet(p, tr, m); err != nil {
		return nil, err
	}
	if err := probeTrain(seed, tr, m); err != nil {
		return nil, err
	}
	return m, commonLayers(p, seed, tr, m)
}

func (r *fedRun) verify() error {
	if r.jobs == 0 {
		return errors.New("no federated job ran")
	}
	return r.verr
}

func (r *fedRun) close() {}
