//go:build !amd64

package vindex

// scanKernel is scanGo on architectures without an assembly kernel.
func scanKernel(q, data, out []float32) { scanGo(q, data, out) }
