package vindex

// scanKernel is the SSE2 kernel (SSE2 is part of every amd64 CPU). It
// scores len(out)/8 blocks of dimension len(q), two blocks (16 rows)
// per pass over q. Each lane accumulates one row in element order with
// MULPS then ADDPS, the product taking the query element as its first
// operand and the sum the accumulator, as the compiled vector.Dot does
// with MULSS and ADDSS; the scores are bit-identical. It requires
// len(q) >= 1 and len(data) == len(out)*len(q), which scanBlocks
// guarantees.
//
//go:noescape
func scanKernel(q, data, out []float32)
