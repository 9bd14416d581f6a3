package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"time"

	securetf "github.com/securetf/securetf"
	"github.com/securetf/securetf/internal/seccrypto"
	"github.com/securetf/securetf/internal/serving"
	"github.com/securetf/securetf/internal/tflite"
)

// opPoint is a workload's operating point for the isolated layer
// probes: the model it runs and one operation's input.
type opPoint struct {
	lite  *securetf.LiteModel
	input *securetf.Tensor
	// rows is the batch the tflite probe invokes at (0: the input's
	// rows).
	rows int
}

// An isolated probe repeats its call at least probeMinRuns times and
// for at least probeMinTime, and reports the median call.
const (
	probeMinRuns = 5
	probeMinTime = 200 * time.Millisecond
)

// medianOf times f repeatedly and returns the median call.
func medianOf(sp spanRef, name string, f func() error) (time.Duration, error) {
	var d []float64
	start := time.Now()
	for len(d) < probeMinRuns || time.Since(start) < probeMinTime {
		s := sp.child(name)
		if err := f(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d = append(d, float64(s.end()))
	}
	return time.Duration(percentile(d, 50)), nil
}

// serve-* layer metrics: read from the live fleet, with the dist layer
// measured on a small train-cnn cluster.
func (r *serveRun) layers(w *window, tr *tracer, seed int64) (map[string]float64, error) {
	m := w.layers
	steps := r.stepVtimes()
	for _, st := range []string{"ocr", "classify", "redact"} {
		m["router.step_vms."+st] = steps[st]
	}
	var err error
	var rtt, hop time.Duration
	if rtt, hop, err = r.f.probe(r.inputs[0], 32, tr); err != nil {
		return nil, err
	}
	m["serving.gateway_rtt_ms"], m["router.hop_ms"] = ms(rtt), ms(hop)
	r.point.rows = max(1, int(math.Round(m["serving.rows_per_invoke"])))
	if err := r.f.cl.netLayers(r.point, tr, m); err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(r.f.spec.nodes, func(n nodeModel) bool { return n.fromVolume }) {
		// The fleet serves from memory: load the served model through
		// the FS shield on a separate node.
		if err := r.f.cl.loadProbe(r.point.lite, tr.root("probe.fsshield")); err != nil {
			return nil, err
		}
	}
	if err := probeTrain(seed, tr, m); err != nil {
		return nil, err
	}
	zeroFederated(m)
	return m, commonLayers(r.point, seed, tr, m)
}

// netLayers measures the network shield with an isolated echo of one
// request's bytes, and the attestation cost of the cluster's
// provisions.
func (cl *cluster) netLayers(p opPoint, tr *tracer, m map[string]float64) error {
	var req bytes.Buffer
	if err := serving.WriteRequest(&req, serving.WireRequest{Model: "m", Argmax: true, Input: p.input}); err != nil {
		return err
	}
	rtt, handshake, err := cl.echoProbe(req.Len(), tr.root("probe.netshield"))
	if err != nil {
		return err
	}
	m["netshield.record_rtt_us"] = float64(rtt) / 1e3
	m["netshield.handshake_ms"] = ms(handshake)
	m["cas.attest_vms"] = ms(cl.attest) / float64(max(cl.provisions, 1))
	return nil
}

// loadProbe stores lite on a fresh node's encrypted volume and loads it
// into a gateway from there.
func (cl *cluster) loadProbe(lite *securetf.LiteModel, sp spanRef) error {
	c, err := cl.launch("load-probe", true, true, sp)
	if err != nil {
		return err
	}
	gw, err := securetf.ServeModels(c, securetf.ModelServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	defer gw.Close()
	return loadFromVolume(c, gw, "probe", lite, sp)
}

// probeFleet measures the serving, router, FS-shield and network-shield
// layers for a workload that does not serve: a one-node fleet serving
// the workload's own model, loaded from an encrypted volume, probed
// while otherwise idle.
func probeFleet(p opPoint, tr *tracer, m map[string]float64) error {
	f, err := buildFleet(fleetSpec{nodes: []nodeModel{{name: "model", lite: p.lite, fromVolume: true}}}, tr.root("probe.fleet"))
	if err != nil {
		return err
	}
	defer f.close()
	rtt, hop, err := f.probe(p.input, 32, tr)
	if err != nil {
		return err
	}
	m["serving.gateway_rtt_ms"], m["router.hop_ms"] = ms(rtt), ms(hop)
	mm := f.gws[0].Metrics()
	if len(mm) != 1 || mm[0].Batches == 0 {
		return fmt.Errorf("probe gateway reports %d models", len(mm))
	}
	m["serving.rows_per_invoke"] = float64(mm[0].Served) / float64(mm[0].Batches)
	m["serving.vlatency_p50_ms"] = ms(mm[0].P50)
	m["serving.rejected"] = float64(mm[0].Rejected)
	for _, st := range []string{"ocr", "classify", "redact"} {
		m["router.step_vms."+st] = 0 // no inference graph
	}
	return f.cl.netLayers(p, tr, m)
}

// probeTrain measures the dist layer for a workload that does not
// train: a few traced rounds of the train-cnn cluster.
func probeTrain(seed int64, tr *tracer, m map[string]float64) error {
	tc, err := buildTrain(seed, tr.root("probe.train"))
	if err != nil {
		return err
	}
	defer tc.close()
	if _, err := tc.round(nil); err != nil {
		return err
	}
	d, err := tc.distLayers(6, tr)
	if err != nil {
		return err
	}
	for k, v := range d {
		m[k] = v
	}
	return nil
}

// zeroFederated reports the federated counters of a workload with no
// federated rounds.
func zeroFederated(m map[string]float64) {
	m["federated.uplink_kb_per_round"] = 0
	m["federated.accept_ratio"] = 0
	m["federated.reveals_per_round"] = 0
}

// commonLayers adds the probes every workload runs at its operating
// point, and the set-up layers read from the set-up spans.
func commonLayers(p opPoint, seed int64, tr *tracer, m map[string]float64) error {
	sp := tr.root("probe.isolated")
	defer sp.end()
	out, err := probeTFLite(p, sp, m)
	if err != nil {
		return err
	}
	if m["serving.wire_us"], err = probeWire(p.input, out, sp); err != nil {
		return err
	}
	if m["tf.train_step_ms"], err = probeStep(securetf.NewMNISTCNN(seed), seed, trainBatch, sp, "tf.TrainMore.cnn"); err != nil {
		return err
	}
	if m["tf.fed_local_step_ms"], err = probeStep(securetf.NewMNISTMLP(seed), seed, fedBatch, sp, "tf.TrainMore.mlp"); err != nil {
		return err
	}
	if m["seccrypto.prg_ns_per_word"], err = probePRG(sp); err != nil {
		return err
	}
	spans := tr.snapshot()
	m["datasets.generate_ms"] = ms(medianDur(setupSpans(spans), "datasets.generate"))
	m["cas.provision_ms"] = ms(medianDur(spans, "cas.Provision"))
	m["fsshield.model_load_ms"] = ms(medianDur(spans, "serving.LoadModel"))
	return nil
}

// setupSpans are the spans of the workload's own set-up (the first
// operation traced).
func setupSpans(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Req == 1 {
			out = append(out, s)
		}
	}
	return out
}

// probeTFLite invokes the model in process, with no container, at the
// operating point's batch. FLOPs and weight bytes come from the model's
// shapes.
func probeTFLite(p opPoint, sp spanRef, m map[string]float64) (*securetf.Tensor, error) {
	in, err := repeatRows(p.input, p.rows)
	if err != nil {
		return nil, err
	}
	cl, err := securetf.NewClassifier(nil, p.lite, 1)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	var out *securetf.Tensor
	d, err := medianOf(sp, "tflite.Invoke", func() error {
		out, err = cl.Run(in)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := in.Shape()[0]
	m["tflite.invoke_ms"] = ms(d)
	m["tflite.gflops"] = float64(liteFLOPs(p.lite)*int64(rows)) / d.Seconds() / 1e9
	m["tflite.weight_mb_per_invoke"] = float64(p.lite.WeightBytes()) / (1 << 20)
	return out, nil
}

// liteFLOPs counts one row's multiply-adds (as 2 FLOPs) in the model's
// fully connected and convolution ops, from their tensor shapes.
func liteFLOPs(m *securetf.LiteModel) int64 {
	var total int64
	for _, op := range m.Ops {
		if len(op.Inputs) < 2 || len(op.Outputs) < 1 {
			continue
		}
		w := m.Tensors[op.Inputs[1]].Shape
		out := m.Tensors[op.Outputs[0]].Shape
		switch {
		case op.Code == tflite.OpFullyConnected && len(w) == 2:
			total += 2 * int64(w[0]) * int64(w[1])
		case op.Code == tflite.OpConv2D && len(w) == 4 && len(out) == 4:
			total += 2 * int64(out[1]) * int64(out[2]) * int64(w[0]) * int64(w[1]) * int64(w[2]) * int64(w[3])
		}
	}
	return total
}

// repeatRows tiles the first row of t into a batch of rows (t itself
// when rows is 0 or equals its batch).
func repeatRows(t *securetf.Tensor, rows int) (*securetf.Tensor, error) {
	shape := t.Shape()
	if rows == 0 || rows == shape[0] {
		return t, nil
	}
	row := len(t.Floats()) / shape[0]
	vals := make([]float32, 0, rows*row)
	for i := 0; i < rows; i++ {
		vals = append(vals, t.Floats()[:row]...)
	}
	return securetf.TensorFromFloats(append(securetf.Shape{rows}, shape[1:]...), vals)
}

// probeWire runs the serving request/response codec over memory: one
// request carrying input and one response carrying out.
func probeWire(input, out *securetf.Tensor, sp spanRef) (float64, error) {
	var buf bytes.Buffer
	d, err := medianOf(sp, "serving.wire", func() error {
		buf.Reset()
		if err := serving.WriteRequest(&buf, serving.WireRequest{Model: "model", Input: input}); err != nil {
			return err
		}
		if _, err := serving.ReadRequest(&buf); err != nil {
			return err
		}
		if err := serving.WriteResponse(&buf, serving.WireResponse{Status: serving.StatusOK, Version: 1, Output: out}); err != nil {
			return err
		}
		_, err := serving.ReadResponse(&buf)
		return err
	})
	return float64(d) / 1e3, err
}

// probeStep times one training step of model on batch generated
// samples, in process.
func probeStep(model securetf.Model, seed int64, batch int, sp spanRef, name string) (float64, error) {
	xs, ys, err := mnist(seed, batch)
	if err != nil {
		return 0, err
	}
	tm, err := securetf.OpenModel(nil, model, securetf.SGD{LR: trainLR}, 1, seed)
	if err != nil {
		return 0, err
	}
	defer tm.Close()
	d, err := medianOf(sp, name, func() error { return tm.TrainMore(xs, ys, batch, 1) })
	return ms(d), err
}

// probePRG expands the mask words one fed-secagg client draws per
// round: the MLP's parameter count once per other cohort member.
func probePRG(sp spanRef) (float64, error) {
	var params int
	for _, v := range securetf.InitialVariables(securetf.NewMNISTMLP(1)) {
		params += len(v.Floats())
	}
	words := params * (fedCohort - 1)
	var key seccrypto.Key
	d, err := medianOf(sp, "seccrypto.PRG", func() error {
		g := seccrypto.NewPRG(key)
		for range words {
			g.Uint64()
		}
		return nil
	})
	return float64(d) / float64(words), err
}
