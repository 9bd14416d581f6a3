package tf

import (
	"math"
	"testing"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/sgx"
	"github.com/securetf/securetf/internal/vtime"
)

func run1(t *testing.T, s *Session, feeds Feeds, fetch *Node, opts ...RunOption) *Tensor {
	t.Helper()
	out, err := s.Run(feeds, []*Node{fetch}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return out[0]
}

func TestConstAndArithmetic(t *testing.T) {
	g := NewGraph()
	a := g.Const("a", mustTensor(t, Shape{3}, []float32{1, 2, 3}))
	b := g.Const("b", mustTensor(t, Shape{3}, []float32{10, 20, 30}))
	sum := g.Add(a, b)
	prod := g.Mul(a, b)
	s := NewSession(g)
	defer s.Close()

	got := run1(t, s, nil, sum)
	want := mustTensor(t, Shape{3}, []float32{11, 22, 33})
	if !AllClose(got, want, 0) {
		t.Fatalf("Add = %v", got.Floats())
	}
	got = run1(t, s, nil, prod)
	want = mustTensor(t, Shape{3}, []float32{10, 40, 90})
	if !AllClose(got, want, 0) {
		t.Fatalf("Mul = %v", got.Floats())
	}
}

func mustTensor(t *testing.T, shape Shape, data []float32) *Tensor {
	t.Helper()
	tt, err := FromFloats(shape, data)
	if err != nil {
		t.Fatal(err)
	}
	return tt
}

func TestScalarBroadcast(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", mustTensor(t, Shape{2, 2}, []float32{1, 2, 3, 4}))
	two := g.Const("two", Scalar(2))
	s := NewSession(g)
	defer s.Close()

	got := run1(t, s, nil, g.Mul(x, two))
	if !AllClose(got, mustTensor(t, Shape{2, 2}, []float32{2, 4, 6, 8}), 0) {
		t.Fatalf("x*2 = %v", got.Floats())
	}
	got = run1(t, s, nil, g.Sub(two, x))
	if !AllClose(got, mustTensor(t, Shape{2, 2}, []float32{1, 0, -1, -2}), 0) {
		t.Fatalf("2-x = %v", got.Floats())
	}
}

func TestPlaceholderFeeding(t *testing.T) {
	g := NewGraph()
	x := g.Placeholder("x", Float32, Shape{-1, 2})
	y := g.Mul(x, x)
	s := NewSession(g)
	defer s.Close()

	in := mustTensor(t, Shape{3, 2}, []float32{1, 2, 3, 4, 5, 6})
	got := run1(t, s, Feeds{x: in}, y)
	if !AllClose(got, mustTensor(t, Shape{3, 2}, []float32{1, 4, 9, 16, 25, 36}), 0) {
		t.Fatalf("x*x = %v", got.Floats())
	}

	if _, err := s.Run(nil, []*Node{y}); err == nil {
		t.Fatal("unfed placeholder accepted")
	}
}

func TestMatMul(t *testing.T) {
	g := NewGraph()
	a := g.Const("a", mustTensor(t, Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6}))
	b := g.Const("b", mustTensor(t, Shape{3, 2}, []float32{7, 8, 9, 10, 11, 12}))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, g.MatMul(a, b))
	want := mustTensor(t, Shape{2, 2}, []float32{58, 64, 139, 154})
	if !AllClose(got, want, 1e-5) {
		t.Fatalf("MatMul = %v", got.Floats())
	}
}

// TestMatMulBitsIndependentOfThreads runs the same product (with zero
// inputs) on 1- and 4-thread devices: row partitioning
// must not change any output bit, or trajectories would depend on the
// device's thread count.
func TestMatMulBitsIndependentOfThreads(t *testing.T) {
	g := NewGraph()
	a := RandNormal(Shape{37, 300}, 1, 11)
	for i := range a.f32 {
		if i%5 == 0 {
			a.f32[i] = 0
		}
	}
	prod := g.MatMul(g.Const("a", a), g.Const("b", RandNormal(Shape{300, 70}, 1, 12)))
	var results []*Tensor
	for _, threads := range []int{1, 4} {
		dev := device.NewCPU("host", sgx.DefaultParams(), new(vtime.Clock), threads, device.LibcGlibcFactor)
		s := NewSession(g, WithDevice(dev))
		results = append(results, run1(t, s, nil, prod))
		s.Close()
	}
	for i, v := range results[0].f32 {
		if math.Float32bits(v) != math.Float32bits(results[1].f32[i]) {
			t.Fatalf("element %d: %v at 1 thread, %v at 4 threads", i, v, results[1].f32[i])
		}
	}
}

func TestMatMulShapeChecks(t *testing.T) {
	g := NewGraph()
	a := g.Const("a", NewTensor(Float32, Shape{2, 3}))
	b := g.Const("b", NewTensor(Float32, Shape{2, 3}))
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic at build time")
		}
	}()
	g.MatMul(a, b)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", mustTensor(t, Shape{2, 3}, []float32{1, 2, 3, 1000, 1000, 1000}))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, g.Softmax(x))
	for r := 0; r < 2; r++ {
		var sum float64
		for c := 0; c < 3; c++ {
			sum += float64(got.Floats()[r*3+c])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
	// Numerical stability: huge logits must not produce NaN.
	for _, v := range got.Floats() {
		if math.IsNaN(float64(v)) {
			t.Fatal("softmax produced NaN")
		}
	}
}

func TestReluSigmoidTanh(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", mustTensor(t, Shape{3}, []float32{-1, 0, 2}))
	s := NewSession(g)
	defer s.Close()
	relu := run1(t, s, nil, g.Relu(x))
	if !AllClose(relu, mustTensor(t, Shape{3}, []float32{0, 0, 2}), 0) {
		t.Fatalf("relu = %v", relu.Floats())
	}
	sig := run1(t, s, nil, g.Sigmoid(x))
	if math.Abs(float64(sig.Floats()[1])-0.5) > 1e-6 {
		t.Fatalf("sigmoid(0) = %v", sig.Floats()[1])
	}
	tanh := run1(t, s, nil, g.Tanh(x))
	if math.Abs(float64(tanh.Floats()[2])-math.Tanh(2)) > 1e-6 {
		t.Fatalf("tanh(2) = %v", tanh.Floats()[2])
	}
}

func TestConv2DKnownValues(t *testing.T) {
	g := NewGraph()
	// 1x3x3x1 input, 2x2x1x1 filter of ones, VALID, stride 1 => 2x2 sums.
	x := g.Const("x", mustTensor(t, Shape{1, 3, 3, 1}, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}))
	f := g.Const("f", mustTensor(t, Shape{2, 2, 1, 1}, []float32{1, 1, 1, 1}))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, g.Conv2D(x, f, 1, PaddingValid))
	want := mustTensor(t, Shape{1, 2, 2, 1}, []float32{12, 16, 24, 28})
	if !AllClose(got, want, 1e-5) {
		t.Fatalf("conv = %v", got.Floats())
	}
}

func TestConv2DSamePaddingShape(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", NewTensor(Float32, Shape{1, 5, 5, 2}))
	f := g.Const("f", NewTensor(Float32, Shape{3, 3, 2, 4}))
	conv := g.Conv2D(x, f, 2, PaddingSame)
	if !conv.Shape().Equal(Shape{1, 3, 3, 4}) {
		t.Fatalf("SAME stride-2 shape = %v", conv.Shape())
	}
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, conv)
	if !got.Shape().Equal(Shape{1, 3, 3, 4}) {
		t.Fatalf("runtime shape = %v", got.Shape())
	}
}

func TestMaxPoolAvgPool(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", mustTensor(t, Shape{1, 2, 2, 1}, []float32{1, 2, 3, 4}))
	s := NewSession(g)
	defer s.Close()
	maxed := run1(t, s, nil, g.MaxPool(x, 2, 2))
	if maxed.Floats()[0] != 4 {
		t.Fatalf("maxpool = %v", maxed.Floats())
	}
	avg := run1(t, s, nil, g.AvgPool(x, 2, 2))
	if avg.Floats()[0] != 2.5 {
		t.Fatalf("avgpool = %v", avg.Floats())
	}
}

func TestBiasAdd(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", mustTensor(t, Shape{2, 3}, []float32{0, 0, 0, 1, 1, 1}))
	b := g.Const("b", mustTensor(t, Shape{3}, []float32{1, 2, 3}))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, g.BiasAdd(x, b))
	want := mustTensor(t, Shape{2, 3}, []float32{1, 2, 3, 2, 3, 4})
	if !AllClose(got, want, 0) {
		t.Fatalf("biasadd = %v", got.Floats())
	}
}

func TestArgMaxEqualAccuracy(t *testing.T) {
	g := NewGraph()
	logits := g.Const("logits", mustTensor(t, Shape{3, 3}, []float32{
		9, 1, 1,
		1, 9, 1,
		1, 9, 1,
	}))
	labels := g.Const("labels", func() *Tensor {
		tt, _ := FromInts(Shape{3}, []int32{0, 1, 2})
		return tt
	}())
	pred := g.ArgMax(logits)
	acc := g.ReduceMean(g.Equal(pred, labels))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, acc)
	if math.Abs(float64(got.Floats()[0])-2.0/3.0) > 1e-6 {
		t.Fatalf("accuracy = %v, want 2/3", got.Floats()[0])
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	g := NewGraph()
	// Uniform logits over 4 classes: loss = ln(4).
	logits := g.Const("logits", NewTensor(Float32, Shape{1, 4}))
	labels := g.Const("labels", mustTensor(t, Shape{1, 4}, []float32{0, 1, 0, 0}))
	loss := g.ReduceMean(g.SoftmaxCrossEntropy(logits, labels))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, loss)
	if math.Abs(float64(got.Floats()[0])-math.Log(4)) > 1e-5 {
		t.Fatalf("loss = %v, want ln(4)", got.Floats()[0])
	}
}

func TestDropoutTrainingVsInference(t *testing.T) {
	g := NewGraph()
	x := g.Const("x", Fill(Shape{1000}, 1))
	drop := g.Dropout(x, 0.5)
	s := NewSession(g, WithSeed(7))
	defer s.Close()

	// Inference: identity.
	got := run1(t, s, nil, drop)
	if !AllClose(got, Fill(Shape{1000}, 1), 0) {
		t.Fatal("dropout not identity at inference")
	}
	// Training: ~half zeroed, survivors scaled by 2.
	got = run1(t, s, nil, drop, Training())
	zeros, twos := 0, 0
	for _, v := range got.Floats() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("zeros = %d out of 1000, want ~500", zeros)
	}
	if zeros+twos != 1000 {
		t.Fatal("values not partitioned into {0, 2}")
	}
}

func TestVariableAssignAndFetch(t *testing.T) {
	g := NewGraph()
	v := g.Variable("w", Fill(Shape{2}, 3))
	s := NewSession(g)
	defer s.Close()
	got := run1(t, s, nil, v)
	if !AllClose(got, Fill(Shape{2}, 3), 0) {
		t.Fatal("initial value wrong")
	}
	if err := s.SetVariable("w", Fill(Shape{2}, 5)); err != nil {
		t.Fatal(err)
	}
	got = run1(t, s, nil, v)
	if !AllClose(got, Fill(Shape{2}, 5), 0) {
		t.Fatal("SetVariable not visible")
	}
	if err := s.SetVariable("w", Fill(Shape{3}, 1)); err == nil {
		t.Fatal("shape-changing SetVariable accepted")
	}
	if err := s.SetVariable("nope", Fill(Shape{2}, 1)); err == nil {
		t.Fatal("unknown variable accepted")
	}
}

func TestGraphCycleDetected(t *testing.T) {
	g := NewGraph()
	a := g.Const("a", Scalar(1))
	b := g.Add(a, a)
	// Manufacture a cycle (impossible through the public API).
	b.inputs[0] = b
	s := NewSession(g)
	defer s.Close()
	if _, err := s.Run(nil, []*Node{b}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestUniqueNodeNames(t *testing.T) {
	g := NewGraph()
	a := g.Const("x", Scalar(1))
	b := g.Const("x", Scalar(2))
	if a.Name() == b.Name() {
		t.Fatal("duplicate names not uniquified")
	}
	if g.Node(a.Name()) != a || g.Node(b.Name()) != b {
		t.Fatal("name lookup broken")
	}
}
