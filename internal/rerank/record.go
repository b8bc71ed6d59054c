package rerank

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/text"
)

// unknownID is the token ID a prepared question gives a token its
// vocabulary has never seen: it lies past every interned ID, so it
// matches no dialect token.
const unknownID = ^uint32(0)

// Vocab interns the tokens of one candidate pool's dialects to dense
// IDs, so a Record stores integers instead of strings and every set
// feature becomes a sorted merge over []uint32. Raw tokens and their
// canonical forms share one ID space: two IDs are equal exactly when
// their strings are, which is all the features compare. A Vocab is
// safe for concurrent use; snapshot builds intern from many workers.
type Vocab struct {
	// mu is a read-write lock because reads dominate: a pool's dialects
	// share a few dozen distinct tokens, so after the first records
	// every build only looks tokens up, and serving only reads.
	mu sync.RWMutex
	// entries maps each interned string to its entry; bytes tracks the
	// accounting estimate of everything the vocabulary holds.
	entries map[string]*vocabEntry
	bytes   int64
}

// vocabEntry is one interned string. tok is set, under the write lock,
// the first time the string occurs as a raw dialect token; the
// tokenInfo it points to never changes, so record builds read it after
// releasing the lock.
type vocabEntry struct {
	id  uint32
	tok *tokenInfo
}

// tokenInfo is everything a record needs about one raw dialect token,
// computed once per vocabulary instead of once per candidate.
type tokenInfo struct {
	id uint32
	// canon is the ID of the token's canonical content form; content
	// is false for stopwords, which have none.
	canon   uint32
	content bool
	num     bool
	// flags holds the superlative, negation and aggregate markers.
	flags uint8
	// grams are the packed character trigrams of the canonical form.
	grams []uint32
}

// Record flag bits: the dialect's marker words and cue phrases.
const (
	flagSuper uint8 = 1 << iota
	flagNeg
	flagAgg
	flagForEach
	flagOrderOf
	flagCompare
)

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{entries: map[string]*vocabEntry{}}
}

// Len reports how many strings the vocabulary holds.
func (v *Vocab) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.entries)
}

// Bytes is the accounting estimate of the vocabulary's retained
// memory, charged to a snapshot's budget alongside its records.
func (v *Vocab) Bytes() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.bytes
}

// lookup returns the ID of an interned string, or unknownID.
func (v *Vocab) lookup(s string) uint32 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if e, ok := v.entries[s]; ok {
		return e.id
	}
	return unknownID
}

// intern returns the entry of s, adding it when new. Callers hold the
// write lock.
func (v *Vocab) intern(s string) *vocabEntry {
	if e, ok := v.entries[s]; ok {
		return e
	}
	e := &vocabEntry{id: uint32(len(v.entries))}
	v.entries[s] = e
	v.bytes += int64(len(s)) + 64
	return e
}

// resolve appends the token info of each raw token of s to infos,
// interning the tokens the vocabulary has not seen as raw tokens yet.
// Lookups run under the read lock without allocating; only a dialect
// with a new token takes the write lock, and tokenizes again under it.
func (v *Vocab) resolve(s string, infos []*tokenInfo) []*tokenInfo {
	n := len(infos)
	missing := false
	v.mu.RLock()
	text.TokenizeFunc(s, func(tok []byte) {
		if e := v.entries[string(tok)]; !missing && e != nil && e.tok != nil {
			infos = append(infos, e.tok)
		} else {
			missing = true
		}
	})
	v.mu.RUnlock()
	if !missing {
		return infos
	}
	infos = infos[:n]
	v.mu.Lock()
	defer v.mu.Unlock()
	text.TokenizeFunc(s, func(tok []byte) {
		e, ok := v.entries[string(tok)]
		if !ok {
			e = v.intern(string(tok))
		}
		if e.tok == nil {
			e.tok = v.newTokenInfo(e.id, string(tok))
		}
		infos = append(infos, e.tok)
	})
	return infos
}

// newTokenInfo analyses one raw token. Callers hold the write lock.
func (v *Vocab) newTokenInfo(id uint32, t string) *tokenInfo {
	ti := &tokenInfo{id: id, num: t[0] >= '0' && t[0] <= '9'}
	if superlatives[t] {
		ti.flags |= flagSuper
	}
	if negations[t] {
		ti.flags |= flagNeg
	}
	if aggregates[t] {
		ti.flags |= flagAgg
	}
	if !text.IsStopword(t) {
		canon := text.Canon(t)
		ti.content = true
		ti.canon = v.intern(canon).id
		ti.grams = appendGrams(nil, canon)
		slices.Sort(ti.grams)
		ti.grams = slices.Compact(ti.grams)
	}
	v.bytes += int64(unsafe.Sizeof(*ti)) + 4*int64(len(ti.grams))
	return ti
}

// appendGrams appends the packed character trigrams of one token (the
// grams text.CharNGrams(tok, 3) returns: the '#'-padded token is always
// at least three bytes, so every gram packs into a uint32).
func appendGrams(out []uint32, tok string) []uint32 {
	padded := "#" + tok + "#"
	for i := 0; i+3 <= len(padded); i++ {
		out = append(out, uint32(padded[i])<<16|uint32(padded[i+1])<<8|uint32(padded[i+2]))
	}
	return out
}

// Record is the dialect side of the re-ranking features for one pool
// candidate, computed once when the snapshot is built: token IDs in
// order, sorted ID sets of the content tokens, the first sentence's
// content tokens, the numeric tokens and the character trigrams, the
// number of distinct token bigrams, and the dialect's marker and cue
// flags. The ID lists share one backing slice; the bigrams themselves
// are the consecutive token pairs, matched against the question's few
// bigrams when scoring rather than stored. A Record is immutable once
// built and indexes the Vocab that built it.
type Record struct {
	// ids is toks | content | first | nums | grams; the counts below
	// delimit the sections.
	ids                            []uint32
	nToks, nContent, nFirst, nNums uint32
	// nBigrams is the number of distinct token bigrams.
	nBigrams uint32
	flags    uint8
}

func (r *Record) toks() []uint32    { return r.ids[:r.nToks] }
func (r *Record) content() []uint32 { o := r.nToks; return r.ids[o : o+r.nContent] }
func (r *Record) first() []uint32   { o := r.nToks + r.nContent; return r.ids[o : o+r.nFirst] }
func (r *Record) nums() []uint32 {
	o := r.nToks + r.nContent + r.nFirst
	return r.ids[o : o+r.nNums]
}
func (r *Record) grams() []uint32 { return r.ids[r.nToks+r.nContent+r.nFirst+r.nNums:] }

// Bytes is the accounting estimate of the record's retained memory.
func (r *Record) Bytes() int64 {
	return int64(unsafe.Sizeof(*r)) + 4*int64(cap(r.ids))
}

// recordScratch is the reusable working memory of one record build.
type recordScratch struct {
	infos   []*tokenInfo
	ids     []uint32
	content []*tokenInfo
	bigrams []uint64
	lower   []byte
}

var scratchPool = sync.Pool{New: func() any { return new(recordScratch) }}

// Record builds the feature record of one dialect expression,
// interning its tokens. The dialect is tokenized once: the first
// sentence (up to the first '.') and the rest are tokenized apart,
// which yields exactly text.Tokenize of the whole, since '.' always
// separates tokens. Safe for concurrent use; the only allocation is
// the record's own ID slice.
func (v *Vocab) Record(dial string) Record {
	sc := scratchPool.Get().(*recordScratch)
	defer scratchPool.Put(sc)

	cut := len(dial)
	if i := strings.IndexByte(dial, '.'); i > 0 {
		cut = i
	}
	infos := v.resolve(dial[:cut], sc.infos[:0])
	nFirst := len(infos)
	infos = v.resolve(dial[cut:], infos)
	sc.infos = infos

	var r Record
	if strings.Contains(dial, "for each") {
		r.flags |= flagForEach
	}
	if strings.Contains(dial, "order of") {
		r.flags |= flagOrderOf
	}
	sc.lower = lowerInto(sc.lower, dial)
	if hasCompareCueLower(sc.lower) {
		r.flags |= flagCompare
	}
	ids := sc.ids[:0]
	for _, ti := range infos {
		ids = append(ids, ti.id)
		r.flags |= ti.flags
	}
	r.nToks = uint32(len(ids))

	// Content tokens, sorted by canonical ID: their distinct IDs are
	// the content set, and each distinct one contributes its trigrams.
	content := sc.content[:0]
	for _, ti := range infos {
		if ti.content {
			content = append(content, ti)
		}
	}
	sc.content = content
	slices.SortFunc(content, func(a, b *tokenInfo) int { return cmp.Compare(a.canon, b.canon) })
	contentFrom := len(ids)
	for i, ti := range content {
		if i == 0 || ti.canon != content[i-1].canon {
			ids = append(ids, ti.canon)
		}
	}
	r.nContent = uint32(len(ids) - contentFrom)
	ids, r.nFirst = appendSet(ids, infos[:nFirst], func(ti *tokenInfo) (uint32, bool) { return ti.canon, ti.content })
	ids, r.nNums = appendSet(ids, infos, func(ti *tokenInfo) (uint32, bool) { return ti.id, ti.num })

	bigrams := sc.bigrams[:0]
	for i := 0; i+1 < len(infos); i++ {
		bigrams = append(bigrams, pairKey(infos[i].id, infos[i+1].id))
	}
	sc.bigrams = bigrams
	slices.Sort(bigrams)
	r.nBigrams = uint32(len(slices.Compact(bigrams)))

	start := len(ids)
	for i, ti := range content {
		if i == 0 || ti.canon != content[i-1].canon {
			ids = append(ids, ti.grams...)
		}
	}
	slices.Sort(ids[start:])
	ids = ids[:start+len(slices.Compact(ids[start:]))]
	sc.ids = ids

	r.ids = make([]uint32, len(ids))
	copy(r.ids, ids)
	return r
}

// appendSet appends the sorted, deduplicated IDs that key selects from
// infos and returns the set's size.
func appendSet(ids []uint32, infos []*tokenInfo, key func(*tokenInfo) (uint32, bool)) ([]uint32, uint32) {
	start := len(ids)
	for _, ti := range infos {
		if id, ok := key(ti); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids[start:])
	n := len(slices.Compact(ids[start:]))
	return ids[:start+n], uint32(n)
}

// pairKey packs a token bigram into one sortable key.
func pairKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// bindPrep resolves the prepared question's tokens against a pool's
// vocabulary: raw and head token IDs in order, and the sorted ID sets
// of its known content tokens, numbers and bigrams. Tokens the
// vocabulary lacks get unknownID, so they count towards the question's
// set sizes but match no candidate.
func (p *Prep) bindPrep(v *Vocab) {
	p.vocab = v
	p.tokIDs = make([]uint32, len(p.toks))
	for i, t := range p.toks {
		p.tokIDs[i] = v.lookup(t)
	}
	p.contentIDs = make([]uint32, len(p.uniqContent))
	p.contentSet = p.contentSet[:0]
	for i, t := range p.uniqContent {
		id := v.lookup(t)
		p.contentIDs[i] = id
		if id != unknownID {
			p.contentSet = append(p.contentSet, id)
		}
	}
	slices.Sort(p.contentSet)
	p.headIDs = make([]uint32, len(p.uniqHead))
	for i, t := range p.uniqHead {
		p.headIDs[i] = v.lookup(t)
	}
	p.numSet = p.numSet[:0]
	for _, t := range p.uniqNums {
		if id := v.lookup(t); id != unknownID {
			p.numSet = append(p.numSet, id)
		}
	}
	slices.Sort(p.numSet)
	p.bigramSet = p.bigramSet[:0]
	for i := 0; i+1 < len(p.tokIDs); i++ {
		a, b := p.tokIDs[i], p.tokIDs[i+1]
		if a != unknownID && b != unknownID {
			p.bigramSet = append(p.bigramSet, pairKey(a, b))
		}
	}
	slices.Sort(p.bigramSet)
	p.bigramSet = slices.Compact(p.bigramSet)
}

// rebind returns a copy of the prepared question bound to v, sharing
// every vocabulary-independent artifact.
func (p *Prep) rebind(v *Vocab) *Prep {
	if p.vocab == v {
		return p
	}
	cp := *p
	cp.contentSet, cp.numSet, cp.bigramSet = nil, nil, nil
	cp.bindPrep(v)
	return &cp
}

// interCount counts the elements two sorted, deduplicated ID sets
// share.
func interCount(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// bigramHits counts the distinct bigrams of a sorted, deduplicated
// key set that occur among the consecutive pairs of toks.
func bigramHits(set []uint64, toks []uint32) int {
	if len(set) == 0 || len(toks) < 2 {
		return 0
	}
	var small [64]bool
	seen := small[:]
	if len(set) > len(small) {
		seen = make([]bool, len(set))
	}
	hits := 0
	for i := 0; i+1 < len(toks) && hits < len(set); i++ {
		if j, ok := slices.BinarySearch(set, pairKey(toks[i], toks[i+1])); ok && !seen[j] {
			seen[j] = true
			hits++
		}
	}
	return hits
}

// jaccard is text.Jaccard over set sizes and their intersection.
func jaccard(na, nb, inter int) float64 {
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return float64(inter) / float64(na+nb-inter)
}

// ratio is text.OverlapRatio over a set size and its covered part.
func ratio(hit, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// editDistance is text.EditDistance over token IDs, keeping its two
// rows on the stack for dialects of ordinary length.
func editDistance(a, b []uint32) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var buf [2 * 96]int
	var prev, cur []int
	if n := len(b) + 1; 2*n <= len(buf) {
		prev, cur = buf[:n], buf[n:2*n]
	} else {
		prev, cur = make([]int, n), make([]int, n)
	}
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
