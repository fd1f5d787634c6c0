package tensor

import (
	"fmt"
	"math"
)

// SoftmaxRows applies a numerically-stable softmax independently to
// each row of a 2-D tensor [rows, classes].
func SoftmaxRows(logits *Tensor) *Tensor {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows needs 2-D input, got %v", logits.shape))
	}
	r, c := logits.shape[0], logits.shape[1]
	out := New(r, c)
	for i := 0; i < r; i++ {
		SoftmaxRow(out.Data[i*c:(i+1)*c], logits.Data[i*c:(i+1)*c])
	}
	return out
}

// SoftmaxRow writes the numerically-stable softmax of src into dst
// (same length). It is the row kernel of SoftmaxRows,
// for callers that want one row at a time in their own buffer.
func SoftmaxRow(dst, src []float32) {
	m := src[0]
	for _, v := range src[1:] {
		if v > m {
			m = v
		}
	}
	sum := 0.0
	for i, v := range src {
		e := math.Exp(float64(v - m))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1.0 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// RowEntropy returns the Shannon entropy (in nats) of each row of a
// 2-D probability tensor. Zero probabilities contribute zero.
func RowEntropy(probs *Tensor) []float64 {
	if probs.NDim() != 2 {
		panic(fmt.Sprintf("tensor: RowEntropy needs 2-D input, got %v", probs.shape))
	}
	r, c := probs.shape[0], probs.shape[1]
	out := make([]float64, r)
	for i := 0; i < r; i++ {
		h := 0.0
		for _, p := range probs.Data[i*c : (i+1)*c] {
			if p > 0 {
				h -= float64(p) * math.Log(float64(p))
			}
		}
		out[i] = h
	}
	return out
}
