package nn

import (
	"fmt"
	"math"

	"ldbnadapt/internal/tensor"
)

// MaxPool2D is a max pooling layer over NCHW tensors.
type MaxPool2D struct {
	name     string
	Geom     tensor.ConvGeom
	lastIdx  []int32 // flat source index per output element (-1 for all-padding windows)
	lastIn   [4]int
	lastOutN int

	inferOut Scratch // Infer-mode output buffer
	bpOut    Scratch // Train/Eval/Adapt output buffer
	dxOut    Scratch // backward gradient output
}

// NewMaxPool2D constructs a max-pool layer with the given geometry.
func NewMaxPool2D(name string, g tensor.ConvGeom) *MaxPool2D {
	return &MaxPool2D{name: name, Geom: g}
}

// Name returns the layer identifier.
func (p *MaxPool2D) Name() string { return p.name }

// Params returns nil.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward computes the windowed maximum into layer scratch,
// remembering argmax indices. In Infer mode the argmax cache is
// skipped.
func (p *MaxPool2D) Forward(x *tensor.Tensor, mode Mode) *tensor.Tensor {
	if x.NDim() != 4 {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,c,h,w]", p.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := p.Geom.OutSize(h, w)
	record := !mode.IsInfer()
	var out *tensor.Tensor
	if record {
		out = p.bpOut.For(n, c, oh, ow)
		p.lastIdx = growI32(p.lastIdx, n*c*oh*ow)
		p.lastIn = [4]int{n, c, h, w}
		p.lastOutN = n * c * oh * ow
	} else {
		out = p.inferOut.For(n, c, oh, ow)
		p.lastIdx = nil // Backward after an Infer forward must panic
	}
	oi := 0
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			src := x.Data[(ni*c+ci)*h*w : (ni*c+ci+1)*h*w]
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := int32(-1)
					for ky := 0; ky < p.Geom.KH; ky++ {
						iy := oy*p.Geom.SH - p.Geom.PH + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < p.Geom.KW; kx++ {
							ix := ox*p.Geom.SW - p.Geom.PW + kx
							if ix < 0 || ix >= w {
								continue
							}
							v := src[iy*w+ix]
							if v > best {
								best = v
								bestIdx = int32((ni*c+ci)*h*w + iy*w + ix)
							}
						}
					}
					if bestIdx < 0 {
						best = 0
					}
					out.Data[oi] = best
					if record {
						p.lastIdx[oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
	return out
}

// Backward routes gradient to each window's argmax.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastIdx == nil {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", p.name))
	}
	if grad.Size() != p.lastOutN {
		panic(fmt.Sprintf("nn: %s: grad size %d, want %d", p.name, grad.Size(), p.lastOutN))
	}
	dx := p.dxOut.For(p.lastIn[0], p.lastIn[1], p.lastIn[2], p.lastIn[3])
	dx.Zero()
	for i, v := range grad.Data {
		if idx := p.lastIdx[i]; idx >= 0 {
			dx.Data[idx] += v
		}
	}
	return dx
}

// GlobalAvgPool averages each channel's spatial extent: [n,c,h,w] → [n,c].
type GlobalAvgPool struct {
	name   string
	lastIn [4]int
	out    Scratch // forward output (every mode)
	dxOut  Scratch // backward gradient output
}

// NewGlobalAvgPool constructs a global average-pool layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Name returns the layer identifier.
func (p *GlobalAvgPool) Name() string { return p.name }

// Params returns nil.
func (p *GlobalAvgPool) Params() []*Param { return nil }

// Forward averages over H×W per channel into layer scratch, valid until
// the layer's next forward.
func (p *GlobalAvgPool) Forward(x *tensor.Tensor, _ Mode) *tensor.Tensor {
	if x.NDim() != 4 {
		panic(fmt.Sprintf("nn: %s: input %v, want [n,c,h,w]", p.name, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.lastIn = [4]int{n, c, h, w}
	out := p.out.For(n, c)
	hw := h * w
	inv := 1.0 / float64(hw)
	for i := 0; i < n*c; i++ {
		s := 0.0
		for _, v := range x.Data[i*hw : (i+1)*hw] {
			s += float64(v)
		}
		out.Data[i] = float32(s * inv)
	}
	return out
}

// Backward spreads the gradient uniformly over each channel plane.
func (p *GlobalAvgPool) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if p.lastIn == [4]int{} {
		panic(fmt.Sprintf("nn: %s: Backward before Forward", p.name))
	}
	n, c, h, w := p.lastIn[0], p.lastIn[1], p.lastIn[2], p.lastIn[3]
	if grad.Size() != n*c {
		panic(fmt.Sprintf("nn: %s: grad %v, want [%d,%d]", p.name, grad.Shape(), n, c))
	}
	dx := p.dxOut.For(n, c, h, w)
	hw := h * w
	inv := float32(1.0 / float64(hw))
	for i := 0; i < n*c; i++ {
		g := grad.Data[i] * inv
		dst := dx.Data[i*hw : (i+1)*hw]
		for j := range dst {
			dst[j] = g
		}
	}
	return dx
}
