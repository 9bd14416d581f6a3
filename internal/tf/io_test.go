package tf

import (
	"runtime"
	"testing"
)

// buildTestModel creates a small dense model used by serialization tests.
func buildTestModel(g *Graph) (x, logits *Node) {
	x = g.Placeholder("x", Float32, Shape{-1, 4})
	w1 := g.Variable("w1", RandNormal(Shape{4, 8}, 0.5, 70))
	b1 := g.Variable("b1", RandNormal(Shape{8}, 0.1, 71))
	h := g.Relu(g.BiasAdd(g.MatMul(x, w1), b1))
	w2 := g.Variable("w2", RandNormal(Shape{8, 3}, 0.5, 72))
	logits = g.MatMul(h, w2)
	return
}

func TestGraphMarshalRoundTrip(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)

	raw, err := MarshalGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := UnmarshalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Nodes()) != len(g.Nodes()) {
		t.Fatalf("node count %d vs %d", len(g2.Nodes()), len(g.Nodes()))
	}

	// Same input through both graphs gives identical outputs (same
	// variable initials).
	in := RandNormal(Shape{5, 4}, 1, 73)
	s1 := NewSession(g)
	defer s1.Close()
	s2 := NewSession(g2)
	defer s2.Close()
	out1, err := s1.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	x2, logits2 := g2.Node(x.Name()), g2.Node(logits.Name())
	if x2 == nil || logits2 == nil {
		t.Fatal("node names lost in round trip")
	}
	out2, err := s2.Run(Feeds{x2: in}, []*Node{logits2})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(out1[0], out2[0], 1e-6) {
		t.Fatal("restored graph computes different outputs")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalGraph([]byte("not a graph")); err == nil {
		t.Fatal("garbage accepted")
	}
	g := NewGraph()
	buildTestModel(g)
	raw, _ := MarshalGraph(g)
	for _, cut := range []int{7, len(raw) / 2, len(raw) - 3} {
		if _, err := UnmarshalGraph(raw[:cut]); err == nil {
			t.Fatalf("truncated graph at %d accepted", cut)
		}
	}
}

// TestUnmarshalGraphRejectsHostileCounts encodes one node whose input
// count, or whose int-list attribute length, is far beyond the payload:
// both must fail before anything is sized from the count.
func TestUnmarshalGraphRejectsHostileCounts(t *testing.T) {
	node := func(tail func(w *writer)) []byte {
		var w writer
		w.buf.Write(graphMagic)
		w.u32(1)
		w.str("n")
		w.str(OpConst)
		w.u8(uint8(Float32))
		w.u32(0) // rank
		tail(&w)
		return w.buf.Bytes()
	}
	for name, raw := range map[string][]byte{
		"inputs": node(func(w *writer) { w.u32(0x7fffffff) }),
		"int-list attr": node(func(w *writer) {
			w.u32(0) // inputs
			w.u32(1) // attrs
			w.str("k")
			w.u8(attrKindInts)
			w.u32(0x7fffffff)
		}),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalGraph(raw)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: hostile count accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: rejecting a %d-byte graph allocated %d bytes", name, len(raw), grew)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)
	s := NewSession(g)
	defer s.Close()

	// Perturb variables away from initials, snapshot, restore into a
	// fresh session.
	if err := s.SetVariable("w1", Fill(Shape{4, 8}, 0.25)); err != nil {
		t.Fatal(err)
	}
	ckpt := SaveCheckpoint(s)

	s2 := NewSession(g)
	defer s2.Close()
	if err := RestoreCheckpoint(s2, ckpt); err != nil {
		t.Fatal(err)
	}
	in := RandNormal(Shape{2, 4}, 1, 80)
	out1, err := s.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	out2, err := s2.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(out1[0], out2[0], 0) {
		t.Fatal("checkpoint restore did not reproduce outputs")
	}
}

func TestRestoreCheckpointValidates(t *testing.T) {
	g := NewGraph()
	buildTestModel(g)
	s := NewSession(g)
	defer s.Close()
	if err := RestoreCheckpoint(s, []byte("junk")); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}
}

func TestFreezeReplacesVariables(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)
	s := NewSession(g)
	defer s.Close()

	// Train-ish mutation so frozen values differ from initials.
	if err := s.SetVariable("w2", Fill(Shape{8, 3}, 0.5)); err != nil {
		t.Fatal(err)
	}
	frozen, err := Freeze(s, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	if len(frozen.Variables()) != 0 {
		t.Fatal("frozen graph still has variables")
	}

	in := RandNormal(Shape{3, 4}, 1, 81)
	want, err := s.Run(Feeds{x: in}, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSession(frozen)
	defer fs.Close()
	fx, flogits := frozen.Node(x.Name()), frozen.Node(logits.Name())
	got, err := fs.Run(Feeds{fx: in}, []*Node{flogits})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(want[0], got[0], 1e-6) {
		t.Fatal("frozen graph differs from live session")
	}
}

func TestFrozenGraphSerializes(t *testing.T) {
	g := NewGraph()
	x, logits := buildTestModel(g)
	s := NewSession(g)
	defer s.Close()
	frozen, err := Freeze(s, []*Node{logits})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalGraph(frozen)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalGraph(raw)
	if err != nil {
		t.Fatal(err)
	}
	in := RandNormal(Shape{2, 4}, 1, 82)
	rs := NewSession(restored)
	defer rs.Close()
	rx, rlogits := restored.Node(x.Name()), restored.Node(logits.Name())
	got, err := rs.Run(Feeds{rx: in}, []*Node{rlogits})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSession(frozen)
	defer fs.Close()
	want, err := fs.Run(Feeds{frozen.Node(x.Name()): in}, []*Node{frozen.Node(logits.Name())})
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(want[0], got[0], 0) {
		t.Fatal("serialized frozen graph differs")
	}
}

func TestFreezeTrainedModelKeepsAccuracy(t *testing.T) {
	// Train, freeze, verify the frozen graph classifies like the live
	// session — the workflow secureTF uses to produce inference models.
	g := NewGraph()
	x, y, loss, acc := buildLogreg(g)
	train, err := Minimize(g, SGD{LR: 0.5}, loss)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(g)
	defer s.Close()
	xs, ys := syntheticClassification(64, 9)
	for i := 0; i < 100; i++ {
		if _, err := s.Run(Feeds{x: xs, y: ys}, []*Node{train}, Training()); err != nil {
			t.Fatal(err)
		}
	}
	liveAcc, err := s.Run(Feeds{x: xs, y: ys}, []*Node{acc})
	if err != nil {
		t.Fatal(err)
	}

	frozen, err := Freeze(s, []*Node{acc})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewSession(frozen)
	defer fs.Close()
	frozenAcc, err := fs.Run(
		Feeds{frozen.Node(x.Name()): xs, frozen.Node(y.Name()): ys},
		[]*Node{frozen.Node(acc.Name())})
	if err != nil {
		t.Fatal(err)
	}
	if liveAcc[0].Floats()[0] != frozenAcc[0].Floats()[0] {
		t.Fatalf("accuracy changed by freezing: %v vs %v", liveAcc[0].Floats()[0], frozenAcc[0].Floats()[0])
	}
}
