package tflite

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/tf"
)

// buildFrozenMLP trains nothing — it just builds a deterministic frozen
// 2-layer MLP for conversion tests, returning the frozen graph and node
// handles.
func buildFrozenMLP(t *testing.T) (*tf.Graph, *tf.Node, *tf.Node) {
	t.Helper()
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 6})
	w1 := g.Variable("w1", tf.RandNormal(tf.Shape{6, 10}, 0.5, 201))
	b1 := g.Variable("b1", tf.RandNormal(tf.Shape{10}, 0.1, 202))
	h := g.Relu(g.BiasAdd(g.MatMul(x, w1), b1))
	drop := g.Dropout(h, 0.3) // identity at inference; converter elides it
	w2 := g.Variable("w2", tf.RandNormal(tf.Shape{10, 4}, 0.5, 203))
	logits := g.MatMul(drop, w2)
	probs := g.Softmax(logits)

	sess := tf.NewSession(g)
	defer sess.Close()
	frozen, err := tf.Freeze(sess, []*tf.Node{probs})
	if err != nil {
		t.Fatal(err)
	}
	return frozen, frozen.Node(x.Name()), frozen.Node(probs.Name())
}

// tfReference evaluates the frozen graph directly for comparison.
func tfReference(t *testing.T, g *tf.Graph, x, out *tf.Node, in *tf.Tensor) *tf.Tensor {
	t.Helper()
	sess := tf.NewSession(g)
	defer sess.Close()
	res, err := sess.Run(tf.Feeds{x: in}, []*tf.Node{out})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestConvertAndInvokeMatchesTF(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Fusion check: the whole MLP should lower to FC, FC, SOFTMAX.
	if len(model.Ops) != 3 {
		t.Fatalf("ops = %d (%v), want 3 after fusion", len(model.Ops), opCodes(model))
	}
	if model.Ops[0].Code != OpFullyConnected || model.Ops[0].Activation != ActRelu {
		t.Fatalf("op 0 = %v/%v, want fused FC+ReLU", model.Ops[0].Code, model.Ops[0].Activation)
	}

	in := tf.RandNormal(tf.Shape{5, 6}, 1, 204)
	want := tfReference(t, g, x, probs, in)

	ip, err := NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	got, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tf.AllClose(want, got, 1e-5) {
		t.Fatal("tflite output differs from TensorFlow reference")
	}
}

func opCodes(m *Model) []OpCode {
	out := make([]OpCode, len(m.Ops))
	for i, op := range m.Ops {
		out[i] = op.Code
	}
	return out
}

func TestConvertCNN(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 8, 8, 1})
	f1 := g.Variable("f1", tf.RandNormal(tf.Shape{3, 3, 1, 4}, 0.4, 301))
	b1 := g.Variable("b1", tf.RandNormal(tf.Shape{4}, 0.1, 302))
	conv := g.Relu(g.BiasAdd(g.Conv2D(x, f1, 1, tf.PaddingSame), b1))
	pool := g.MaxPool(conv, 2, 2)
	flat := g.Flatten(pool)
	w := g.Variable("w", tf.RandNormal(tf.Shape{64, 3}, 0.3, 303))
	logits := g.MatMul(flat, w)

	sess := tf.NewSession(g)
	defer sess.Close()
	frozen, err := tf.Freeze(sess, []*tf.Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	fx, fl := frozen.Node(x.Name()), frozen.Node(logits.Name())

	model, err := Convert(frozen, []*tf.Node{fx}, []*tf.Node{fl}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := opCodes(model); len(got) != 4 {
		t.Fatalf("ops = %v, want fused CONV, MAXPOOL, RESHAPE, FC", got)
	}

	in := tf.RandNormal(tf.Shape{2, 8, 8, 1}, 1, 304)
	want := tfReference(t, frozen, fx, fl, in)

	ip, err := NewInterpreter(model)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	got, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	if !tf.AllClose(want, got, 1e-4) {
		t.Fatal("CNN output differs from TensorFlow reference")
	}
}

func TestModelMarshalRoundTrip(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw := model.Marshal()
	restored, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}

	in := tf.RandNormal(tf.Shape{3, 6}, 1, 205)
	run := func(m *Model) *tf.Tensor {
		ip, err := NewInterpreter(m)
		if err != nil {
			t.Fatal(err)
		}
		defer ip.Close()
		if err := ip.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		out, err := ip.Output(0)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !tf.AllClose(run(model), run(restored), 0) {
		t.Fatal("round-tripped model computes differently")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	raw := model.Marshal()
	for _, cut := range []int{6, len(raw) / 3, len(raw) - 2} {
		if _, err := Unmarshal(raw[:cut]); err == nil {
			t.Fatalf("truncated model at %d accepted", cut)
		}
	}
}

// TestUnmarshalRejectsHostileCounts feeds element counts far beyond the
// file's length: each must fail before anything is sized from it. The
// first input is 9 bytes that used to request a 128 GiB tensor table.
func TestUnmarshalRejectsHostileCounts(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, 0x7fffffff)
	empty := binary.LittleEndian.AppendUint32(nil, 0)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for name, raw := range map[string][]byte{
		"tensors": cat(modelMagic, huge),
		"buffers": cat(modelMagic, empty, huge),
		"ops":     cat(modelMagic, empty, empty, huge),
		"inputs":  cat(modelMagic, empty, empty, empty, huge),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: hostile count accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte model allocated %d bytes", name, len(raw), grew)
		}
	}
}

func TestQuantizedModelSmallerAndClose(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	plain, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	if quant.WeightBytes() >= plain.WeightBytes()/2 {
		t.Fatalf("quantized weights %d not substantially smaller than %d", quant.WeightBytes(), plain.WeightBytes())
	}

	in := tf.RandNormal(tf.Shape{4, 6}, 1, 206)
	want := tfReference(t, g, x, probs, in)
	ip, err := NewInterpreter(quant)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	got, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities should survive 8-bit weight quantization reasonably.
	var maxDiff float64
	for i := range want.Floats() {
		d := math.Abs(float64(want.Floats()[i] - got.Floats()[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Fatalf("quantized output deviates by %v", maxDiff)
	}
}

func TestConvertRejectsUnfrozenGraph(t *testing.T) {
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 2})
	w := g.Variable("w", tf.RandNormal(tf.Shape{2, 2}, 1, 1))
	y := g.MatMul(x, w)
	if _, err := Convert(g, []*tf.Node{x}, []*tf.Node{y}, ConvertOptions{}); err == nil {
		t.Fatal("unfrozen graph accepted")
	}
}

func TestInterpreterChargesDevice(t *testing.T) {
	g, x, probs := buildFrozenMLP(t)
	model, err := Convert(g, []*tf.Node{x}, []*tf.Node{probs}, ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := sgx.NewPlatform("node", sgx.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	enclave, err := p.CreateEnclave(sgx.SyntheticImage("tflite", BinarySize, 1<<20), sgx.ModeHW)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.NewEnclave("tflite", enclave, 1, 0)
	ip, err := NewInterpreter(model, WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.AllocateTensors(); err != nil {
		t.Fatal(err)
	}
	resident := enclave.ResidentBytes()
	if resident < model.WeightBytes() {
		t.Fatalf("enclave resident %d < model weights %d", resident, model.WeightBytes())
	}
	in := tf.RandNormal(tf.Shape{1, 6}, 1, 207)
	if err := ip.SetInput(0, in); err != nil {
		t.Fatal(err)
	}
	before := p.Clock().Now()
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	if p.Clock().Now() == before {
		t.Fatal("Invoke charged no virtual time")
	}
}

func TestCostScalePropagates(t *testing.T) {
	// A node with cost scale 100 must charge ~100x the flops.
	build := func(scale float64) *Model {
		g := tf.NewGraph()
		x := g.Placeholder("x", tf.Float32, tf.Shape{-1, 8})
		w := g.Variable("w", tf.RandNormal(tf.Shape{8, 8}, 0.2, 201))
		y := g.MatMul(x, w)
		if scale > 0 {
			y.SetCostScale(scale)
		}
		sess := tf.NewSession(g)
		defer sess.Close()
		frozen, err := tf.Freeze(sess, []*tf.Node{y})
		if err != nil {
			t.Fatal(err)
		}
		m, err := Convert(frozen, []*tf.Node{frozen.Node(x.Name())}, []*tf.Node{frozen.Node(y.Name())}, ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	measure := func(m *Model) int64 {
		p, err := sgx.NewPlatform("n", sgx.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		e, err := p.CreateEnclave(sgx.SyntheticImage("t", 1<<20, 0), sgx.ModeHW)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := NewInterpreter(m, WithDevice(device.NewEnclave("d", e, 1, 0)))
		if err != nil {
			t.Fatal(err)
		}
		defer ip.Close()
		in := tf.RandNormal(tf.Shape{1, 8}, 1, 1)
		if err := ip.SetInput(0, in); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		return e.Stats().ComputeFLOPs
	}
	base := measure(build(0))
	scaled := measure(build(100))
	if scaled < 50*base {
		t.Fatalf("cost scale not applied: %d vs %d flops", base, scaled)
	}
}
