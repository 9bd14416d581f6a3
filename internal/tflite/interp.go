package tflite

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/securetf/securetf/internal/device"
	"github.com/securetf/securetf/internal/kernels"
	"github.com/securetf/securetf/internal/tf"
)

// Interpreter executes a flat model forward-only, with a preallocated
// weight set and a transient activation arena, charging its work to a
// device. Weights are accessed with the streaming pattern: they are
// read-only and touched sequentially, which is why TensorFlow Lite
// inference degrades gracefully past the EPC limit where the full
// TensorFlow runtime thrashes (paper §5.3 #4).
type Interpreter struct {
	model *Model
	dev   device.Device

	weights   []*tf.Tensor // dequantized scratch view is built lazily per op
	rawInt8   [][]byte     // int8 weights kept resident in quantized form
	scales    []float64
	values    []*tf.Tensor
	allocated bool
	arenaPeak int64
	id        string
}

// Option configures an interpreter.
type Option func(*Interpreter)

// WithDevice charges the interpreter's work to dev.
func WithDevice(dev device.Device) Option {
	return func(ip *Interpreter) { ip.dev = dev }
}

// WithInstanceID namespaces the interpreter's device allocations so
// several interpreters can share one enclave (scale-up experiments).
func WithInstanceID(id string) Option {
	return func(ip *Interpreter) { ip.id = id }
}

// NewInterpreter wraps a model.
func NewInterpreter(m *Model, opts ...Option) (*Interpreter, error) {
	if m == nil {
		return nil, fmt.Errorf("tflite: nil model")
	}
	ip := &Interpreter{
		model:   m,
		weights: make([]*tf.Tensor, len(m.Tensors)),
		rawInt8: make([][]byte, len(m.Tensors)),
		scales:  make([]float64, len(m.Tensors)),
		id:      "tflite",
	}
	for _, o := range opts {
		o(ip)
	}
	if ip.dev == nil {
		ip.dev = device.NewNull()
	}
	return ip, nil
}

// AllocateTensors materializes weight tensors and registers the model's
// residency with the device.
func (ip *Interpreter) AllocateTensors() error {
	if ip.allocated {
		return nil
	}
	var residentBytes int64
	for i, spec := range ip.model.Tensors {
		if spec.Buffer < 0 {
			continue
		}
		raw := ip.model.Buffers[spec.Buffer]
		switch spec.Type {
		case TypeFloat32:
			if len(raw)%4 != 0 {
				return fmt.Errorf("tflite: buffer for %q not float32-aligned", spec.Name)
			}
			vals := make([]float32, len(raw)/4)
			for j := range vals {
				vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[j*4:]))
			}
			t, err := tf.FromFloats(tf.Shape(spec.Shape), vals)
			if err != nil {
				return fmt.Errorf("tflite: weight %q: %w", spec.Name, err)
			}
			ip.weights[i] = t
			residentBytes += int64(len(raw))
		case TypeInt8:
			// Quantized weights stay resident in int8 form; they are
			// dequantized per use into transient scratch.
			ip.rawInt8[i] = raw
			ip.scales[i] = spec.Scale
			residentBytes += int64(len(raw))
		default:
			return fmt.Errorf("tflite: weight %q has bad type", spec.Name)
		}
	}
	ip.dev.AllocReadOnly(ip.id+"/weights", residentBytes)
	ip.allocated = true
	return nil
}

// Close releases the interpreter's device registrations.
func (ip *Interpreter) Close() {
	ip.dev.Free(ip.id + "/weights")
	ip.dev.Free(ip.id + "/arena")
}

// weight returns the float32 view of weight tensor i, dequantizing int8
// weights into scratch (charged as compute).
func (ip *Interpreter) weight(i int) (*tf.Tensor, error) {
	if w := ip.weights[i]; w != nil {
		return w, nil
	}
	raw := ip.rawInt8[i]
	if raw == nil {
		return nil, fmt.Errorf("tflite: tensor %d is not a weight", i)
	}
	spec := ip.model.Tensors[i]
	vals := make([]float32, len(raw))
	scale := float32(ip.scales[i])
	for j, b := range raw {
		vals[j] = float32(int8(b)) * scale
	}
	ip.dev.Compute(int64(len(raw)))
	t, err := tf.FromFloats(tf.Shape(spec.Shape), vals)
	if err != nil {
		return nil, fmt.Errorf("tflite: weight %q: %w", spec.Name, err)
	}
	return t, nil
}

// SetInput feeds model input slot i.
func (ip *Interpreter) SetInput(i int, t *tf.Tensor) error {
	if i < 0 || i >= len(ip.model.Inputs) {
		return fmt.Errorf("tflite: input %d of %d", i, len(ip.model.Inputs))
	}
	if ip.values == nil {
		ip.values = make([]*tf.Tensor, len(ip.model.Tensors))
	}
	ip.values[ip.model.Inputs[i]] = t
	return nil
}

// Output returns model output slot i after Invoke.
func (ip *Interpreter) Output(i int) (*tf.Tensor, error) {
	if i < 0 || i >= len(ip.model.Outputs) {
		return nil, fmt.Errorf("tflite: output %d of %d", i, len(ip.model.Outputs))
	}
	v := ip.values[ip.model.Outputs[i]]
	if v == nil {
		return nil, fmt.Errorf("tflite: output %d not computed; call Invoke", i)
	}
	return v, nil
}

// Invoke runs the model over the current inputs.
func (ip *Interpreter) Invoke() error {
	if !ip.allocated {
		if err := ip.AllocateTensors(); err != nil {
			return err
		}
	}
	if ip.values == nil {
		return fmt.Errorf("tflite: no inputs set")
	}
	var arena int64
	for oi := range ip.model.Ops {
		op := &ip.model.Ops[oi]
		out, err := ip.run(op)
		if err != nil {
			return fmt.Errorf("tflite: op %d (%s): %w", oi, op.Code, err)
		}
		ip.values[op.Outputs[0]] = out
		arena += out.Bytes()
	}
	if arena > ip.arenaPeak {
		ip.arenaPeak = arena
		ip.dev.Alloc(ip.id+"/arena", arena)
	}
	return nil
}

// value fetches an activation or weight as float32.
func (ip *Interpreter) value(i int) (*tf.Tensor, error) {
	if v := ip.values[i]; v != nil {
		return v, nil
	}
	return ip.weight(i)
}

// charge reports one op's work. CostScale applies to FLOPs only: memory
// traffic is the real bytes moved (see tf.Node.SetCostScale).
func (ip *Interpreter) charge(op *OpSpec, flops int64, activationBytes, weightBytes int64) {
	scale := op.CostScale
	if scale <= 0 {
		scale = 1
	}
	ip.dev.Compute(int64(float64(flops) * scale))
	if activationBytes > 0 {
		ip.dev.Access(activationBytes, false)
	}
	if weightBytes > 0 {
		ip.dev.Access(weightBytes, true)
	}
}

func (ip *Interpreter) run(op *OpSpec) (*tf.Tensor, error) {
	switch op.Code {
	case OpFullyConnected:
		return ip.runFullyConnected(op)
	case OpConv2D:
		return ip.runConv2D(op)
	case OpMaxPool, OpAvgPool:
		return ip.runPool(op)
	case OpSoftmax:
		return ip.runSoftmax(op)
	case OpReshape:
		return ip.runReshape(op)
	case OpRelu:
		return ip.runRelu(op)
	case OpAdd:
		return ip.runAdd(op)
	case OpArgMax:
		return ip.runArgMax(op)
	default:
		return nil, fmt.Errorf("unknown opcode %d", op.Code)
	}
}

func applyActivation(act Activation, vals []float32) {
	if act == ActRelu {
		for i, v := range vals {
			if v < 0 {
				vals[i] = 0
			}
		}
	}
}

func (ip *Interpreter) runFullyConnected(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	w, err := ip.weight(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	xs, ws := x.Shape(), w.Shape()
	if len(xs) != 2 || len(ws) != 2 || xs[1] != ws[0] {
		return nil, fmt.Errorf("shapes %v x %v", xs, ws)
	}
	m, k, n := xs[0], xs[1], ws[1]
	out := tf.NewTensor(tf.Float32, tf.Shape{m, n})
	od := out.Floats()
	kernels.MatMul(od, x.Floats(), w.Floats(), m, k, n, 1)
	if len(op.Inputs) > 2 {
		b, err := ip.weight(op.Inputs[2])
		if err != nil {
			return nil, err
		}
		bd := b.Floats()
		for i := 0; i < m; i++ {
			orow := od[i*n : (i+1)*n]
			for j := range orow {
				orow[j] += bd[j]
			}
		}
	}
	applyActivation(op.Activation, od)
	ip.charge(op, 2*int64(m)*int64(k)*int64(n), x.Bytes()+out.Bytes(), w.Bytes())
	return out, nil
}

func (ip *Interpreter) runConv2D(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	f, err := ip.weight(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	xs, fs := x.Shape(), f.Shape()
	if len(xs) != 4 || len(fs) != 4 || xs[3] != fs[2] {
		return nil, fmt.Errorf("shapes %v, %v", xs, fs)
	}
	stride := op.Stride
	if stride < 1 {
		stride = 1
	}
	geo := kernels.NewConvGeom(xs[0], xs[1], xs[2], xs[3], fs[0], fs[1], fs[3], stride, op.Padding == PadSame)
	out := tf.NewTensor(tf.Float32, tf.Shape{geo.N, geo.OH, geo.OW, geo.F})
	od := out.Floats()
	kernels.Conv2D(od, x.Floats(), f.Floats(), geo)
	if len(op.Inputs) > 2 {
		bt, err := ip.weight(op.Inputs[2])
		if err != nil {
			return nil, err
		}
		bd := bt.Floats()
		for i := range od {
			od[i] += bd[i%geo.F]
		}
	}
	applyActivation(op.Activation, od)
	flops := 2 * int64(geo.N) * int64(geo.OH) * int64(geo.OW) * int64(geo.F) * int64(geo.KH) * int64(geo.KW) * int64(geo.C)
	ip.charge(op, flops, x.Bytes()+out.Bytes(), f.Bytes())
	return out, nil
}

func (ip *Interpreter) runPool(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	xs := x.Shape()
	if len(xs) != 4 {
		return nil, fmt.Errorf("pool needs NHWC, got %v", xs)
	}
	batch, h, w, c := xs[0], xs[1], xs[2], xs[3]
	k, stride := op.K, op.Stride
	if k < 1 {
		k = 2
	}
	if stride < 1 {
		stride = k
	}
	oh := (h-k)/stride + 1
	ow := (w-k)/stride + 1
	out := tf.NewTensor(tf.Float32, tf.Shape{batch, oh, ow, c})
	xd, od := x.Floats(), out.Floats()
	for b := 0; b < batch; b++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for cc := 0; cc < c; cc++ {
					var acc float32
					if op.Code == OpMaxPool {
						acc = float32(math.Inf(-1))
					}
					count := 0
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx
							if ix >= w {
								continue
							}
							v := xd[((b*h+iy)*w+ix)*c+cc]
							if op.Code == OpMaxPool {
								if v > acc {
									acc = v
								}
							} else {
								acc += v
							}
							count++
						}
					}
					if op.Code == OpAvgPool && count > 0 {
						acc /= float32(count)
					}
					od[((b*oh+oy)*ow+ox)*c+cc] = acc
				}
			}
		}
	}
	ip.charge(op, int64(out.NumElements())*int64(k*k), x.Bytes()+out.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runSoftmax(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	s := x.Shape()
	cols := s[len(s)-1]
	rows := x.NumElements() / cols
	out := tf.NewTensor(tf.Float32, s)
	xd, od := x.Floats(), out.Floats()
	for r := 0; r < rows; r++ {
		row := xd[r*cols : (r+1)*cols]
		orow := od[r*cols : (r+1)*cols]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxv))
			orow[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range orow {
			orow[i] *= inv
		}
	}
	ip.charge(op, 4*int64(x.NumElements()), 2*x.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runReshape(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	return x.Reshape(tf.Shape(op.NewShape))
}

func (ip *Interpreter) runRelu(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	out := x.Clone()
	applyActivation(ActRelu, out.Floats())
	ip.charge(op, int64(x.NumElements()), 2*x.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runAdd(op *OpSpec) (*tf.Tensor, error) {
	a, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	b, err := ip.value(op.Inputs[1])
	if err != nil {
		return nil, err
	}
	if a.NumElements() != b.NumElements() {
		return nil, fmt.Errorf("Add: %d vs %d elements", a.NumElements(), b.NumElements())
	}
	out := tf.NewTensor(tf.Float32, a.Shape())
	ad, bd, od := a.Floats(), b.Floats(), out.Floats()
	for i := range od {
		od[i] = ad[i] + bd[i]
	}
	ip.charge(op, int64(a.NumElements()), 3*a.Bytes(), 0)
	return out, nil
}

func (ip *Interpreter) runArgMax(op *OpSpec) (*tf.Tensor, error) {
	x, err := ip.value(op.Inputs[0])
	if err != nil {
		return nil, err
	}
	s := x.Shape()
	cols := s[len(s)-1]
	rows := x.NumElements() / cols
	out := tf.NewTensor(tf.Int32, tf.Shape{rows})
	xd := x.Floats()
	for r := 0; r < rows; r++ {
		best, bestIdx := xd[r*cols], 0
		for c := 1; c < cols; c++ {
			if v := xd[r*cols+c]; v > best {
				best, bestIdx = v, c
			}
		}
		out.Ints()[r] = int32(bestIdx)
	}
	ip.charge(op, int64(x.NumElements()), x.Bytes(), 0)
	return out, nil
}
