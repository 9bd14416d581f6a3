// Package tflite reimplements the TensorFlow Lite role in secureTF: a
// small-footprint, forward-only interpreter over a compact flat model
// format. The paper's headline inference results (§5.3) hinge on exactly
// this property — a 1.9 MB interpreter binary plus streamed read-only
// weights keep the enclave working set near the EPC limit where the full
// TensorFlow runtime (87.4 MB binary, read-write graph state) thrashes.
//
// Beyond the paper's baseline, the converter implements the §7.2 "model
// optimization" future work: dead-node pruning, operator fusion
// (MatMul+BiasAdd+ReLU → FullyConnected, Conv2D+BiasAdd+ReLU → fused
// convolution) and optional int8 post-training weight quantization.
package tflite

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// BinarySize is the simulated in-enclave footprint of the TensorFlow
// Lite interpreter binary (the paper measures 1.9 MB).
const BinarySize int64 = 19 * (1 << 20) / 10

// TensorType is a model tensor element type.
type TensorType uint8

// Supported tensor types.
const (
	TypeFloat32 TensorType = 1
	TypeInt8    TensorType = 2
)

// OpCode identifies an operator.
type OpCode uint8

// Operators.
const (
	OpFullyConnected OpCode = iota + 1
	OpConv2D
	OpMaxPool
	OpAvgPool
	OpSoftmax
	OpReshape
	OpRelu
	OpAdd
	OpArgMax
)

// String names the opcode.
func (o OpCode) String() string {
	switch o {
	case OpFullyConnected:
		return "FULLY_CONNECTED"
	case OpConv2D:
		return "CONV_2D"
	case OpMaxPool:
		return "MAX_POOL_2D"
	case OpAvgPool:
		return "AVERAGE_POOL_2D"
	case OpSoftmax:
		return "SOFTMAX"
	case OpReshape:
		return "RESHAPE"
	case OpRelu:
		return "RELU"
	case OpAdd:
		return "ADD"
	case OpArgMax:
		return "ARG_MAX"
	default:
		return "UNKNOWN"
	}
}

// Activation is a fused activation function.
type Activation uint8

// Fused activations.
const (
	ActNone Activation = 0
	ActRelu Activation = 1
)

// Padding modes.
const (
	PadValid uint8 = 0
	PadSame  uint8 = 1
)

// TensorSpec describes one tensor slot.
type TensorSpec struct {
	Name   string
	Type   TensorType
	Shape  []int // -1 marks the dynamic batch dimension
	Buffer int   // index into Model.Buffers, or -1 for activations
	Scale  float64
}

// OpSpec is one operator invocation.
type OpSpec struct {
	Code       OpCode
	Inputs     []int
	Outputs    []int
	Activation Activation
	Stride     int
	K          int
	Padding    uint8
	NewShape   []int // Reshape target
	CostScale  float64
}

// Model is a flat, self-contained inference model.
type Model struct {
	Tensors []TensorSpec
	Buffers [][]byte
	Ops     []OpSpec
	Inputs  []int
	Outputs []int
}

// WeightBytes is the total size of the model's weight buffers — the
// number that determines EPC pressure in the paper's Figures 5–7.
func (m *Model) WeightBytes() int64 {
	var total int64
	for _, b := range m.Buffers {
		total += int64(len(b))
	}
	return total
}

var modelMagic = []byte("SLTF1")

// Marshal serializes the model.
func (m *Model) Marshal() []byte {
	var out []byte
	out = append(out, modelMagic...)
	out = appendU32(out, uint32(len(m.Tensors)))
	for _, t := range m.Tensors {
		out = appendStr(out, t.Name)
		out = append(out, byte(t.Type))
		out = appendIntSlice(out, t.Shape)
		out = appendU32(out, uint32(int32(t.Buffer)))
		out = appendU64(out, math.Float64bits(t.Scale))
	}
	out = appendU32(out, uint32(len(m.Buffers)))
	for _, b := range m.Buffers {
		out = appendU32(out, uint32(len(b)))
		out = append(out, b...)
	}
	out = appendU32(out, uint32(len(m.Ops)))
	for _, op := range m.Ops {
		out = append(out, byte(op.Code), byte(op.Activation), op.Padding)
		out = appendU32(out, uint32(op.Stride))
		out = appendU32(out, uint32(op.K))
		out = appendIntSlice(out, op.Inputs)
		out = appendIntSlice(out, op.Outputs)
		out = appendIntSlice(out, op.NewShape)
		out = appendU64(out, math.Float64bits(op.CostScale))
	}
	out = appendIntSlice(out, m.Inputs)
	out = appendIntSlice(out, m.Outputs)
	return out
}

// Unmarshal parses a serialized model.
func Unmarshal(data []byte) (*Model, error) {
	if len(data) < len(modelMagic) || string(data[:len(modelMagic)]) != string(modelMagic) {
		return nil, fmt.Errorf("tflite: bad model magic")
	}
	r := &byteReader{data: data, off: len(modelMagic)}
	m := &Model{}
	nt, err := r.count(minTensorBytes)
	if err != nil {
		return nil, err
	}
	m.Tensors = make([]TensorSpec, nt)
	for i := range m.Tensors {
		t := &m.Tensors[i]
		if t.Name, err = r.str(); err != nil {
			return nil, err
		}
		tb, err := r.u8()
		if err != nil {
			return nil, err
		}
		t.Type = TensorType(tb)
		if t.Type != TypeFloat32 && t.Type != TypeInt8 {
			return nil, fmt.Errorf("tflite: tensor %d bad type %d", i, tb)
		}
		if t.Shape, err = r.intSlice(); err != nil {
			return nil, err
		}
		buf, err := r.u32()
		if err != nil {
			return nil, err
		}
		t.Buffer = int(int32(buf))
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		t.Scale = math.Float64frombits(bits)
	}
	nb, err := r.count(4)
	if err != nil {
		return nil, err
	}
	m.Buffers = make([][]byte, nb)
	for i := range m.Buffers {
		size, err := r.u32()
		if err != nil {
			return nil, err
		}
		if m.Buffers[i], err = r.bytes(int(size)); err != nil {
			return nil, err
		}
	}
	no, err := r.count(minOpBytes)
	if err != nil {
		return nil, err
	}
	m.Ops = make([]OpSpec, no)
	for i := range m.Ops {
		op := &m.Ops[i]
		code, err := r.u8()
		if err != nil {
			return nil, err
		}
		op.Code = OpCode(code)
		act, err := r.u8()
		if err != nil {
			return nil, err
		}
		op.Activation = Activation(act)
		if op.Padding, err = r.u8(); err != nil {
			return nil, err
		}
		stride, err := r.u32()
		if err != nil {
			return nil, err
		}
		op.Stride = int(stride)
		k, err := r.u32()
		if err != nil {
			return nil, err
		}
		op.K = int(k)
		if op.Inputs, err = r.intSlice(); err != nil {
			return nil, err
		}
		if op.Outputs, err = r.intSlice(); err != nil {
			return nil, err
		}
		if op.NewShape, err = r.intSlice(); err != nil {
			return nil, err
		}
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		op.CostScale = math.Float64frombits(bits)
	}
	if m.Inputs, err = r.intSlice(); err != nil {
		return nil, err
	}
	if m.Outputs, err = r.intSlice(); err != nil {
		return nil, err
	}
	return m, m.validate()
}

// validate performs structural sanity checks so a corrupted model fails
// loading rather than execution.
func (m *Model) validate() error {
	for i, t := range m.Tensors {
		if t.Buffer >= len(m.Buffers) {
			return fmt.Errorf("tflite: tensor %d references buffer %d of %d", i, t.Buffer, len(m.Buffers))
		}
	}
	checkIdx := func(kind string, idxs []int) error {
		for _, ix := range idxs {
			if ix < 0 || ix >= len(m.Tensors) {
				return fmt.Errorf("tflite: %s tensor index %d out of range", kind, ix)
			}
		}
		return nil
	}
	for _, op := range m.Ops {
		if err := checkIdx("op input", op.Inputs); err != nil {
			return err
		}
		if err := checkIdx("op output", op.Outputs); err != nil {
			return err
		}
	}
	if err := checkIdx("model input", m.Inputs); err != nil {
		return err
	}
	return checkIdx("model output", m.Outputs)
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendIntSlice(b []byte, vals []int) []byte {
	b = appendU32(b, uint32(len(vals)))
	for _, v := range vals {
		b = appendU64(b, uint64(int64(v)))
	}
	return b
}

type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) u8() (uint8, error) {
	if r.off+1 > len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, io.ErrUnexpectedEOF
	}
	out := make([]byte, n)
	copy(out, r.data[r.off:])
	r.off += n
	return out, nil
}

func (r *byteReader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	return string(b), err
}

// The smallest encodings of a tensor spec (empty name and shape) and an
// op spec (empty index lists): a count of either beyond what the
// remaining bytes could hold is corruption, not an allocation size.
const (
	minTensorBytes = 4 + 1 + 4 + 4 + 8
	minOpBytes     = 3 + 4 + 4 + 3*4 + 8
)

// count reads a u32 element count and rejects one the remaining bytes
// cannot hold at minSize bytes per element, before anything is sized
// from it.
func (r *byteReader) count(minSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int(n) > (len(r.data)-r.off)/minSize {
		return 0, io.ErrUnexpectedEOF
	}
	return int(n), nil
}

func (r *byteReader) intSlice() ([]int, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		out[i] = int(int64(v))
	}
	return out, nil
}
