package tf

import (
	"fmt"

	"github.com/securetf/securetf/internal/kernels"
)

// Gradient kernels. Several need values cached by the matching forward
// kernel; the forward node's name is carried in the grad node's
// "forward" attribute and looked up in the run's extras.

func kernelReluGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	out := NewTensor(Float32, x.Shape())
	for i, v := range x.f32 {
		if v > 0 {
			out.f32[i] = gradOut.f32[i]
		}
	}
	ctx.charge(n, int64(len(x.f32)), 3*x.Bytes(), false)
	return out, nil
}

func kernelSigmoidGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, y := in[0], in[1]
	out := NewTensor(Float32, y.Shape())
	for i, v := range y.f32 {
		out.f32[i] = gradOut.f32[i] * v * (1 - v)
	}
	ctx.charge(n, 3*int64(len(y.f32)), 3*y.Bytes(), false)
	return out, nil
}

func kernelTanhGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, y := in[0], in[1]
	out := NewTensor(Float32, y.Shape())
	for i, v := range y.f32 {
		out.f32[i] = gradOut.f32[i] * (1 - v*v)
	}
	ctx.charge(n, 3*int64(len(y.f32)), 3*y.Bytes(), false)
	return out, nil
}

func kernelBiasAddGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut := in[0]
	s := gradOut.Shape()
	c := s[len(s)-1]
	out := NewTensor(Float32, Shape{c})
	for i, v := range gradOut.f32 {
		out.f32[i%c] += v
	}
	ctx.charge(n, int64(len(gradOut.f32)), gradOut.Bytes(), true)
	return out, nil
}

func kernelMaxPoolGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	argmax, ok := ctx.extras[n.attrString("forward", "")].([]int32)
	if !ok {
		return nil, fmt.Errorf("tf: MaxPoolGrad: forward cache for %q missing", n.attrString("forward", ""))
	}
	if len(argmax) != gradOut.NumElements() {
		return nil, fmt.Errorf("tf: MaxPoolGrad: cache size %d vs grad %d", len(argmax), gradOut.NumElements())
	}
	out := NewTensor(Float32, x.Shape())
	for i, idx := range argmax {
		if idx >= 0 {
			out.f32[idx] += gradOut.f32[i]
		}
	}
	ctx.charge(n, int64(len(argmax)), gradOut.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelAvgPoolGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x := in[0], in[1]
	geo, err := poolGeom(x, int(n.attrInt("k", 2)), int(n.attrInt("stride", 2)))
	if err != nil {
		return nil, err
	}
	out := NewTensor(Float32, x.Shape())
	for b := 0; b < geo.N; b++ {
		for oy := 0; oy < geo.OH; oy++ {
			for ox := 0; ox < geo.OW; ox++ {
				for cc := 0; cc < geo.C; cc++ {
					count := 0
					for ky := 0; ky < geo.KH; ky++ {
						if oy*geo.Stride+ky < geo.H {
							for kx := 0; kx < geo.KW; kx++ {
								if ox*geo.Stride+kx < geo.W {
									count++
								}
							}
						}
					}
					if count == 0 {
						continue
					}
					g := gradOut.f32[((b*geo.OH+oy)*geo.OW+ox)*geo.C+cc] / float32(count)
					for ky := 0; ky < geo.KH; ky++ {
						iy := oy*geo.Stride + ky
						if iy >= geo.H {
							continue
						}
						for kx := 0; kx < geo.KW; kx++ {
							ix := ox*geo.Stride + kx
							if ix >= geo.W {
								continue
							}
							out.f32[((b*geo.H+iy)*geo.W+ix)*geo.C+cc] += g
						}
					}
				}
			}
		}
	}
	ctx.charge(n, int64(gradOut.NumElements())*int64(geo.KH*geo.KW), gradOut.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelConv2DGradInput(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x, filter := in[0], in[1], in[2]
	geo, err := conv2DGeom(x, filter, int(n.attrInt("stride", 1)), n.attrString("padding", PaddingValid))
	if err != nil {
		return nil, err
	}
	out := NewTensor(Float32, x.Shape())
	gd, fd, od := gradOut.f32, filter.f32, out.f32
	for b := 0; b < geo.N; b++ {
		for oy := 0; oy < geo.OH; oy++ {
			for ox := 0; ox < geo.OW; ox++ {
				gBase := ((b*geo.OH+oy)*geo.OW + ox) * geo.F
				for ky := 0; ky < geo.KH; ky++ {
					iy := oy*geo.Stride + ky - geo.PadTop
					if iy < 0 || iy >= geo.H {
						continue
					}
					for kx := 0; kx < geo.KW; kx++ {
						ix := ox*geo.Stride + kx - geo.PadLeft
						if ix < 0 || ix >= geo.W {
							continue
						}
						inBase := ((b*geo.H+iy)*geo.W + ix) * geo.C
						fBase := (ky*geo.KW + kx) * geo.C * geo.F
						for cc := 0; cc < geo.C; cc++ {
							fRow := fd[fBase+cc*geo.F : fBase+(cc+1)*geo.F]
							var sum float32
							for ff, fv := range fRow {
								sum += gd[gBase+ff] * fv
							}
							od[inBase+cc] += sum
						}
					}
				}
			}
		}
	}
	flops := 2 * int64(geo.N) * int64(geo.OH) * int64(geo.OW) * int64(geo.F) * int64(geo.KH) * int64(geo.KW) * int64(geo.C)
	ctx.charge(n, flops, gradOut.Bytes()+filter.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelConv2DGradFilter(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, x, filter := in[0], in[1], in[2]
	geo, err := conv2DGeom(x, filter, int(n.attrInt("stride", 1)), n.attrString("padding", PaddingValid))
	if err != nil {
		return nil, err
	}
	out := NewTensor(Float32, filter.Shape())
	gd, xd, od := gradOut.f32, x.f32, out.f32
	for b := 0; b < geo.N; b++ {
		for oy := 0; oy < geo.OH; oy++ {
			for ox := 0; ox < geo.OW; ox++ {
				gBase := ((b*geo.OH+oy)*geo.OW + ox) * geo.F
				gRow := gd[gBase : gBase+geo.F]
				for ky := 0; ky < geo.KH; ky++ {
					iy := oy*geo.Stride + ky - geo.PadTop
					if iy < 0 || iy >= geo.H {
						continue
					}
					for kx := 0; kx < geo.KW; kx++ {
						ix := ox*geo.Stride + kx - geo.PadLeft
						if ix < 0 || ix >= geo.W {
							continue
						}
						inBase := ((b*geo.H+iy)*geo.W + ix) * geo.C
						fBase := (ky*geo.KW + kx) * geo.C * geo.F
						for cc := 0; cc < geo.C; cc++ {
							xv := xd[inBase+cc]
							if xv == 0 {
								continue
							}
							kernels.Axpy(xv, gRow, od[fBase+cc*geo.F:fBase+(cc+1)*geo.F])
						}
					}
				}
			}
		}
	}
	flops := 2 * int64(geo.N) * int64(geo.OH) * int64(geo.OW) * int64(geo.F) * int64(geo.KH) * int64(geo.KW) * int64(geo.C)
	ctx.charge(n, flops, gradOut.Bytes()+x.Bytes()+out.Bytes(), false)
	return out, nil
}

func kernelSoftmaxXentGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut, logits, labels := in[0], in[1], in[2]
	rows, cols := rowsCols(logits)
	probs, ok := ctx.extras[n.attrString("forward", "")].([]float32)
	if !ok {
		// Recompute: the forward node may not have been cached (e.g. a
		// restored gradient graph).
		probs = make([]float32, rows*cols)
		softmaxRows(probs, logits.f32, rows, cols)
	}
	out := NewTensor(Float32, logits.Shape())
	for r := 0; r < rows; r++ {
		g := gradOut.f32[r]
		for c := 0; c < cols; c++ {
			idx := r*cols + c
			out.f32[idx] = g * (probs[idx] - labels.f32[idx])
		}
	}
	ctx.charge(n, 2*int64(rows)*int64(cols), 3*logits.Bytes(), false)
	return out, nil
}

func kernelDropoutGrad(ctx *execCtx, n *Node, in []*Tensor) (*Tensor, error) {
	gradOut := in[0]
	mask, ok := ctx.extras[n.attrString("forward", "")].([]float32)
	if !ok {
		// Inference (or forward not run in training mode): identity.
		return gradOut, nil
	}
	out := NewTensor(Float32, gradOut.Shape())
	for i, v := range gradOut.f32 {
		out.f32[i] = v * mask[i]
	}
	ctx.charge(n, int64(len(mask)), 3*gradOut.Bytes(), false)
	return out, nil
}
