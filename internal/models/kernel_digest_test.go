package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/securetf/securetf/internal/tf"
	"github.com/securetf/securetf/internal/tflite"
)

// bitsDigest hashes a tensor's float32 bit patterns: two tensors share a
// digest only if every element is bit-identical.
func bitsDigest(ts ...*tf.Tensor) string {
	h := sha256.New()
	var buf []byte
	for _, t := range ts {
		buf = buf[:0]
		for _, v := range t.Floats() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestDensenetInvokeDigests pins the densenet stand-in's outputs bit for
// bit at several batch sizes. The digests here were recorded with plain
// scalar loops: a kernel may reorder its loops, but each output must keep
// summing its products in the same order.
func TestDensenetInvokeDigests(t *testing.T) {
	ip, err := tflite.NewInterpreter(BuildInferenceModel(Densenet))
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	want := map[int]string{
		1:  "6b1ebaeaf6a15143",
		2:  "f59aa0338dfdeded",
		5:  "9341101f20f84c0c",
		32: "427e26b3fb2bdc80",
	}
	for _, rows := range []int{1, 2, 5, 32} {
		if err := ip.SetInput(0, RandomImageInput(Densenet, rows, int64(rows))); err != nil {
			t.Fatal(err)
		}
		if err := ip.Invoke(); err != nil {
			t.Fatal(err)
		}
		out, err := ip.Output(0)
		if err != nil {
			t.Fatal(err)
		}
		if got := bitsDigest(out); got != want[rows] {
			t.Errorf("densenet at %d rows: digest %s, want %s", rows, got, want[rows])
		}
	}
}

// TestMNISTCNNConvDigests pins the MNIST CNN's convolution outputs, its
// filter gradients and the converted Lite model's logits bit for bit.
func TestMNISTCNNConvDigests(t *testing.T) {
	h := MNISTCNN(1)
	var convs, filters []*tf.Node
	for _, n := range h.Graph.Nodes() {
		if n.Op() == tf.OpConv2D {
			convs = append(convs, n)
			filters = append(filters, n.Inputs()[1])
		}
	}
	if len(convs) != 2 {
		t.Fatalf("found %d Conv2D nodes, want 2", len(convs))
	}
	grads, err := tf.Gradients(h.Graph, h.Loss, filters)
	if err != nil {
		t.Fatal(err)
	}
	sess := tf.NewSession(h.Graph)
	defer sess.Close()
	x := tf.RandNormal(tf.Shape{4, 28, 28, 1}, 1, 3)
	y := tf.OneHot([]int{1, 2, 3, 4}, 10)
	res, err := sess.Run(tf.Feeds{h.X: x, h.Y: y}, append(append([]*tf.Node{}, convs...), grads...))
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantConv = "78b56b809ceab6b7"
		wantGrad = "5a3307dda845bf22"
		wantLite = "3b536ed2db9e5337"
	)
	if got := bitsDigest(res[:2]...); got != wantConv {
		t.Errorf("tf conv outputs: digest %s, want %s", got, wantConv)
	}
	if got := bitsDigest(res[2:]...); got != wantGrad {
		t.Errorf("tf conv filter gradients: digest %s, want %s", got, wantGrad)
	}

	frozen, fx, fl, err := FreezeForInference(h, sess)
	if err != nil {
		t.Fatal(err)
	}
	m, err := tflite.Convert(frozen, []*tf.Node{fx}, []*tf.Node{fl}, tflite.ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ip, err := tflite.NewInterpreter(m)
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	if err := ip.SetInput(0, x); err != nil {
		t.Fatal(err)
	}
	if err := ip.Invoke(); err != nil {
		t.Fatal(err)
	}
	logits, err := ip.Output(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := bitsDigest(logits); got != wantLite {
		t.Errorf("lite CNN logits: digest %s, want %s", got, wantLite)
	}
}
