package vindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vector"
)

// sameScore compares scores by their bits. Any NaN equals any NaN: no
// comparison tells NaNs apart, so their payload cannot change a
// ranking, and which payload an operation on two NaNs keeps depends on
// operand order the compiler picks (a coverage-instrumented build of
// vector.Dot differs from the plain one).
func sameScore(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

// sameHits reports the first difference between two hit lists, with
// scores compared by sameScore.
func sameHits(got, want []Hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || !sameScore(got[i].Score, want[i].Score) {
			return fmt.Errorf("rank %d: got %+v (%#x), want %+v (%#x)", i, got[i], math.Float32bits(got[i].Score), want[i], math.Float32bits(want[i].Score))
		}
	}
	return nil
}

// scanVecs returns n vectors of dimension dim whose elements span many
// binades, so the rounding of every product and partial sum matters.
func scanVecs(rng *rand.Rand, n, dim int) []vector.Vec {
	vecs := make([]vector.Vec, n)
	for i := range vecs {
		v := make(vector.Vec, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(16)-8)))
		}
		vecs[i] = v
	}
	return vecs
}

// TestScanMatchesDot pins the blocked scan to vector.Dot bit for bit,
// and its hits to the reference topK, across dimensions that do and do
// not fill a block row and pool sizes around the block and chunk
// boundaries. It also pins scanBlocks (the assembly kernel on amd64) to
// the portable scanGo.
func TestScanMatchesDot(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(29))
	for _, dim := range []int{1, 3, 7, 8, 13, 64, 100} {
		for _, n := range []int{1, 7, 9, 255, 256, 257, 17087} {
			vecs := scanVecs(rng, n, dim)
			q := scanVecs(rng, 1, dim)[0]
			f := NewFlat()
			ids := make([]int, n)
			for i, v := range vecs {
				ids[i] = n - i // ids out of storage order
				f.Add(ids[i], v)
			}
			all, err := f.SearchContext(ctx, q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != n {
				t.Fatalf("dim %d n %d: %d hits", dim, n, len(all))
			}
			for _, h := range all {
				if want := vector.Dot(q, vecs[n-h.ID]); math.Float32bits(h.Score) != math.Float32bits(want) {
					t.Fatalf("dim %d n %d id %d: score %v (%#x), Dot %v (%#x)", dim, n, h.ID,
						h.Score, math.Float32bits(h.Score), want, math.Float32bits(want))
				}
			}
			for _, k := range []int{1, 5, 100, n} {
				got, err := f.SearchContext(ctx, q, k)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := topK(ctx, q, ids, vecs, k)
				if err := sameHits(got, want); err != nil {
					t.Fatalf("dim %d n %d k %d: %v", dim, n, k, err)
				}
			}
			kernel := make([]float32, roundUp(n))
			portable := make([]float32, roundUp(n))
			scanBlocks(q, f.rows.data, kernel)
			scanGo(q, f.rows.data, portable)
			for r := range kernel {
				if math.Float32bits(kernel[r]) != math.Float32bits(portable[r]) {
					t.Fatalf("dim %d n %d row %d: kernel %v, scanGo %v", dim, n, r, kernel[r], portable[r])
				}
			}
		}
	}
}

// TestIVFListsMatchDot checks the blocked inverted lists the same way:
// probing every list, IVF returns the reference topK of the whole pool.
func TestIVFListsMatchDot(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	vecs := scanVecs(rng, 1000, 13)
	ids := make([]int, len(vecs))
	iv := NewIVF(6, 6, 1)
	for i, v := range vecs {
		ids[i] = i
		iv.Add(i, v)
	}
	for trial := 0; trial < 5; trial++ {
		q := scanVecs(rng, 1, 13)[0]
		for _, k := range []int{0, 10, 1000} {
			got, err := iv.SearchContext(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := topK(ctx, q, ids, vecs, k)
			if err := sameHits(got, want); err != nil {
				t.Fatalf("trial %d k %d: %v", trial, k, err)
			}
		}
	}
}

// TestSearchDimensionMismatch: a query of the wrong length, or an index
// that was handed a vector of the wrong length, is an ErrDimension
// error, never a panic or a score over a prefix.
func TestSearchDimensionMismatch(t *testing.T) {
	ctx := context.Background()
	flat, ivf := NewFlat(), NewIVF(2, 2, 1)
	for i := 0; i < 20; i++ {
		v := vector.Vec{float32(i), 1, 0, -1}
		flat.Add(i, v)
		ivf.Add(i, v)
	}
	for _, idx := range []Index{flat, ivf} {
		for _, q := range []vector.Vec{nil, {1}, {1, 0, 0}, {1, 0, 0, 0, 0}} {
			if hits, err := idx.SearchContext(ctx, q, 3); !errors.Is(err, ErrDimension) || hits != nil {
				t.Errorf("%T query of %d: hits %v, err %v", idx, len(q), hits, err)
			}
			if hits := idx.Search(q, 3); hits != nil {
				t.Errorf("%T Search with a query of %d returned %v", idx, len(q), hits)
			}
		}
		if _, err := idx.SearchContext(ctx, vector.Vec{1, 0, 0, 0}, 3); err != nil {
			t.Errorf("%T: matching query failed: %v", idx, err)
		}
		idx.Add(99, vector.Vec{1, 2})
		if idx.Len() != 20 {
			t.Errorf("%T stored a vector of the wrong length: Len %d", idx, idx.Len())
		}
		if _, err := idx.SearchContext(ctx, vector.Vec{1, 0, 0, 0}, 3); !errors.Is(err, ErrDimension) {
			t.Errorf("%T after a mismatched Add: err %v", idx, err)
		}
	}
}

// TestScanBlocksGuardsLengths: inconsistent lengths make the kernel do
// less, never read or write past a slice.
func TestScanBlocksGuardsLengths(t *testing.T) {
	q := vector.Vec{1, 2, 3}
	data := make([]float32, 2*lanes*len(q))
	for i := range data {
		data[i] = 1
	}
	out := make([]float32, 4*lanes)
	for i := range out {
		out[i] = -1
	}
	scanBlocks(q, data, out) // data holds only two of the four blocks
	for r, s := range out {
		want := float32(6) // 1+2+3
		if r >= 2*lanes {
			want = -1 // not scored
		}
		if s != want {
			t.Fatalf("row %d: %v, want %v", r, s, want)
		}
	}
	scanBlocks(nil, nil, out[:lanes])
	for r, s := range out[:lanes] {
		if s != 0 {
			t.Fatalf("empty query row %d: %v, want 0", r, s)
		}
	}
}

// fuzzSpecials are the float32 values the fuzz seeds plant.
var fuzzSpecials = []float32{
	float32(math.Copysign(0, -1)), 0, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, 1, -1,
}

// fuzzInput encodes a dimension, a k and float32 values as the byte
// layout FuzzFlatSearch decodes.
func fuzzInput(dim byte, k int8, vals ...float32) []byte {
	b := []byte{dim, byte(k)}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// FuzzFlatSearch compares Flat against the reference topK on arbitrary
// vectors: the first byte picks the dimension, the second (signed) k,
// and the rest are little-endian float32s, the query first and then
// the stored vectors.
func FuzzFlatSearch(f *testing.F) {
	f.Add(fuzzInput(2, 3, 1, 0, float32(math.Copysign(0, -1)), 0, 0, float32(math.Copysign(0, -1)), 1, 1))
	f.Add(fuzzInput(1, 0, math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1))
	f.Add(fuzzInput(3, -4, 1, 2, 3, float32(math.Inf(1)), 0, 0, float32(math.Inf(-1)), 1, 1, 0, 0, 0))
	f.Add(fuzzInput(2, 1, float32(math.NaN()), 1, 1, 1, 2, 2, float32(math.NaN()), 0))
	f.Add(fuzzInput(1, 100, 1, 5, 4, 3))
	f.Add(fuzzInput(4, 2, fuzzSpecials...))
	rng := rand.New(rand.NewSource(37))
	var many []float32
	for i := 0; i < 9*(300+1); i++ {
		many = append(many, fuzzSpecials[rng.Intn(len(fuzzSpecials))]*float32(rng.NormFloat64()))
	}
	f.Add(fuzzInput(9, 20, many...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim, k := int(data[0]%17)+1, int(int8(data[1]))
		vals := make([]float32, (len(data)-2)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[2+4*i:]))
		}
		if len(vals) < dim {
			return
		}
		q, rest := vector.Vec(vals[:dim]), vals[dim:]
		idx := NewFlat()
		var ids []int
		var vecs []vector.Vec
		for i := 0; (i+1)*dim <= len(rest); i++ {
			ids = append(ids, i)
			vecs = append(vecs, rest[i*dim:(i+1)*dim])
			idx.Add(i, vecs[i])
		}
		got, err := idx.SearchContext(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := topK(context.Background(), q, ids, vecs, k)
		if err := sameHits(got, want); err != nil {
			t.Fatalf("dim %d k %d n %d: %v", dim, k, len(ids), err)
		}
	})
}
