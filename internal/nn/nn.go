// Package nn implements the small feed-forward scoring network used by
// GAR's second-stage re-ranking model: fully-connected layers with ReLU
// activations, Adam optimization, and the listwise softmax
// cross-entropy objective (ListNet) — the same family of listwise
// losses as the NeuralNDCG objective the paper trains with.
package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully-connected network with ReLU hidden layers and a single
// linear output.
type MLP struct {
	sizes   []int
	weights [][][]float64 // layer → out → in
	biases  [][]float64   // layer → out

	// Adam state.
	mW, vW [][][]float64
	mB, vB [][]float64
	step   int
}

// NewMLP builds a network with the given layer sizes; the last size must
// be 1 (a scalar score) and every size must be positive. Weights use
// scaled uniform initialization.
func NewMLP(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 || sizes[len(sizes)-1] != 1 {
		return nil, fmt.Errorf("nn: MLP needs at least [in, 1] sizes with scalar output, got %v", sizes)
	}
	for _, n := range sizes {
		if n <= 0 {
			return nil, fmt.Errorf("nn: MLP layer sizes must be positive, got %v", sizes)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: sizes}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in))
		w := make([][]float64, out)
		mw := make([][]float64, out)
		vw := make([][]float64, out)
		for o := range w {
			w[o] = make([]float64, in)
			mw[o] = make([]float64, in)
			vw[o] = make([]float64, in)
			for i := range w[o] {
				w[o][i] = (rng.Float64()*2 - 1) * scale
			}
		}
		m.weights = append(m.weights, w)
		m.mW = append(m.mW, mw)
		m.vW = append(m.vW, vw)
		m.biases = append(m.biases, make([]float64, out))
		m.mB = append(m.mB, make([]float64, out))
		m.vB = append(m.vB, make([]float64, out))
	}
	return m, nil
}

// InputDim returns the expected feature dimension.
func (m *MLP) InputDim() int { return m.sizes[0] }

// Score runs a forward pass and returns the scalar output. It keeps
// the activations of networks up to 64 units wide on the stack, so the
// re-ranker's per-candidate scoring allocates nothing; the arithmetic
// is forward's, so the score is bit-identical.
func (m *MLP) Score(x []float64) float64 {
	var buf [2][64]float64
	cur := x
	for l := range m.weights {
		var out []float64
		if n := m.sizes[l+1]; n <= len(buf[l%2]) {
			out = buf[l%2][:n]
		} else {
			out = make([]float64, n)
		}
		m.layer(l, cur, out)
		cur = out
	}
	return cur[0]
}

// forward returns the activations of every layer (input first).
func (m *MLP) forward(x []float64) [][]float64 {
	acts := [][]float64{x}
	cur := x
	for l := range m.weights {
		out := make([]float64, m.sizes[l+1])
		m.layer(l, cur, out)
		acts = append(acts, out)
		cur = out
	}
	return acts
}

// layer computes layer l's activations of input cur into out.
func (m *MLP) layer(l int, cur, out []float64) {
	for o := range out {
		s := m.biases[l][o]
		row := m.weights[l][o]
		for i, v := range cur {
			s += row[i] * v
		}
		if l+1 < len(m.weights) { // hidden layers: ReLU
			if s < 0 {
				s = 0
			}
		}
		out[o] = s
	}
}

// grads accumulates parameter gradients for a batch.
type grads struct {
	w [][][]float64
	b [][]float64
}

func (m *MLP) newGrads() *grads {
	g := &grads{}
	for l := range m.weights {
		w := make([][]float64, len(m.weights[l]))
		for o := range w {
			w[o] = make([]float64, len(m.weights[l][o]))
		}
		g.w = append(g.w, w)
		g.b = append(g.b, make([]float64, len(m.biases[l])))
	}
	return g
}

// backward accumulates gradients for one example given dLoss/dScore.
func (m *MLP) backward(acts [][]float64, dScore float64, g *grads) {
	// delta for the output layer (linear).
	delta := []float64{dScore}
	for l := len(m.weights) - 1; l >= 0; l-- {
		in := acts[l]
		for o, d := range delta {
			g.b[l][o] += d
			row := g.w[l][o]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			break
		}
		prev := make([]float64, len(in))
		for i := range prev {
			var s float64
			for o, d := range delta {
				s += d * m.weights[l][o][i]
			}
			if in[i] <= 0 { // ReLU derivative of the hidden activation
				s = 0
			}
			prev[i] = s
		}
		delta = prev
	}
}

// adamApply performs one Adam update with the accumulated gradients.
func (m *MLP) adamApply(g *grads, lr float64) {
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	m.step++
	bc1 := 1 - math.Pow(beta1, float64(m.step))
	bc2 := 1 - math.Pow(beta2, float64(m.step))
	for l := range m.weights {
		for o := range m.weights[l] {
			for i := range m.weights[l][o] {
				grad := g.w[l][o][i]
				m.mW[l][o][i] = beta1*m.mW[l][o][i] + (1-beta1)*grad
				m.vW[l][o][i] = beta2*m.vW[l][o][i] + (1-beta2)*grad*grad
				m.weights[l][o][i] -= lr * (m.mW[l][o][i] / bc1) / (math.Sqrt(m.vW[l][o][i]/bc2) + eps)
			}
			grad := g.b[l][o]
			m.mB[l][o] = beta1*m.mB[l][o] + (1-beta1)*grad
			m.vB[l][o] = beta2*m.vB[l][o] + (1-beta2)*grad*grad
			m.biases[l][o] -= lr * (m.mB[l][o] / bc1) / (math.Sqrt(m.vB[l][o]/bc2) + eps)
		}
	}
}

// List is one listwise training group: the candidate feature vectors for
// a single NL query and their relevance labels (1 for the gold dialect,
// 0 otherwise; graded labels are allowed).
type List struct {
	Features [][]float64
	Labels   []float64
}

// TrainConfig controls listwise training.
type TrainConfig struct {
	Epochs int     // default 10
	LR     float64 // default 0.003
	Seed   int64
}

// TrainListwise fits the network with the ListNet objective: the
// cross-entropy between the softmax of the predicted scores and the
// normalized label distribution of each list. It returns the mean loss
// per epoch.
func (m *MLP) TrainListwise(lists []List, cfg TrainConfig) []float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.LR == 0 {
		cfg.LR = 0.003
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(lists))
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var sum float64
		var n int
		for _, li := range order {
			l := lists[li]
			if len(l.Features) == 0 {
				continue
			}
			loss := m.listStep(l, cfg.LR)
			sum += loss
			n++
		}
		if n > 0 {
			sum /= float64(n)
		}
		losses = append(losses, sum)
	}
	return losses
}

// listStep applies one ListNet update for a single list.
func (m *MLP) listStep(l List, lr float64) float64 {
	n := len(l.Features)
	actsAll := make([][][]float64, n)
	scores := make([]float64, n)
	for i, x := range l.Features {
		acts := m.forward(x)
		actsAll[i] = acts
		scores[i] = acts[len(acts)-1][0]
	}
	pred := softmax(scores)
	target := normalizeLabels(l.Labels)

	// Loss = -sum target_i * log(pred_i); dLoss/dscore_i = pred_i - target_i.
	var loss float64
	for i := range pred {
		if target[i] > 0 {
			loss -= target[i] * math.Log(pred[i]+1e-12)
		}
	}
	g := m.newGrads()
	for i := range pred {
		m.backward(actsAll[i], pred[i]-target[i], g)
	}
	m.adamApply(g, lr)
	return loss
}

func softmax(scores []float64) []float64 {
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	out := make([]float64, len(scores))
	var sum float64
	for i, s := range scores {
		out[i] = math.Exp(s - maxS)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// normalizeLabels converts labels to a probability distribution; an
// all-zero list becomes uniform.
func normalizeLabels(labels []float64) []float64 {
	out := make([]float64, len(labels))
	var sum float64
	for _, l := range labels {
		if l > 0 {
			sum += l
		}
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(labels))
		}
		return out
	}
	for i, l := range labels {
		if l > 0 {
			out[i] = l / sum
		}
	}
	return out
}

// mlpState is the serialized form of MLP, including the optimizer state
// so training can resume after a load.
type mlpState struct {
	Sizes   []int
	Weights [][][]float64
	Biases  [][]float64
	MW, VW  [][][]float64
	MB, VB  [][]float64
	Step    int
}

// GobEncode implements gob.GobEncoder.
func (m *MLP) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(mlpState{
		Sizes: m.sizes, Weights: m.weights, Biases: m.biases,
		MW: m.mW, VW: m.vW, MB: m.mB, VB: m.vB, Step: m.step,
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *MLP) GobDecode(data []byte) error {
	var st mlpState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	m.sizes, m.weights, m.biases = st.Sizes, st.Weights, st.Biases
	m.mW, m.vW, m.mB, m.vB, m.step = st.MW, st.VW, st.MB, st.VB, st.Step
	return nil
}
