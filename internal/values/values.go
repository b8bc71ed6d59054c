// Package values implements GAR's value post-processing step (§V-A3).
// GAR masks literal values during generalization and never uses cell
// values during ranking; after ranking, this package (1) filters ranked
// candidates whose dialect lacks a column implied by a literal value in
// the NL query, and (2) re-instantiates placeholder literals from values
// found in the NL query, enabling execution-accuracy evaluation.
package values

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/text"
)

// ColRef names a schema column.
type ColRef struct {
	Table, Column string
}

// Linker links NL literal values to schema columns, optionally using a
// populated instance's cell values.
type Linker struct {
	db *schema.Database
	// cellCols maps each distinct lower-cased text cell value to the
	// columns it occurs in.
	cellCols map[string][]ColRef
}

// NewLinker builds a linker. content may be nil; then only quoted spans
// and numbers are linked, without column hints.
func NewLinker(db *schema.Database, content *engine.Instance) *Linker {
	l := &Linker{db: db, cellCols: map[string][]ColRef{}}
	if content == nil {
		return l
	}
	for tname, td := range content.Tables {
		t := db.Table(tname)
		if t == nil {
			continue
		}
		for _, row := range td.Rows {
			for ci, v := range row {
				if v.Null || v.IsNum || ci >= len(td.Columns) {
					continue
				}
				key := strings.ToLower(v.Str)
				if key == "" {
					continue
				}
				ref := ColRef{Table: t.Name, Column: td.Columns[ci]}
				if !containsRef(l.cellCols[key], ref) {
					l.cellCols[key] = append(l.cellCols[key], ref)
				}
			}
		}
	}
	return l
}

func containsRef(refs []ColRef, r ColRef) bool {
	for _, x := range refs {
		if strings.EqualFold(x.Table, r.Table) && strings.EqualFold(x.Column, r.Column) {
			return true
		}
	}
	return false
}

// NLValue is one literal value detected in an NL query.
type NLValue struct {
	Text  string
	IsNum bool
	// Columns are the schema columns whose cells contain this value
	// (empty without content linking).
	Columns []ColRef
}

// Extract finds literal values in the NL query: quoted spans, numbers,
// and known cell values (longest match first).
func (l *Linker) Extract(nl string) []NLValue {
	var out []NLValue
	seen := map[string]bool{}
	add := func(v NLValue) {
		key := strings.ToLower(v.Text)
		if key == "" || seen[key] {
			return
		}
		seen[key] = true
		out = append(out, v)
	}

	// Quoted spans: "red bull" or 'red bull'.
	for _, quote := range []byte{'"', '\''} {
		s := nl
		for {
			i := strings.IndexByte(s, quote)
			if i < 0 {
				break
			}
			j := strings.IndexByte(s[i+1:], quote)
			if j < 0 {
				break
			}
			span := s[i+1 : i+1+j]
			if span != "" {
				add(NLValue{Text: span, Columns: l.columnsOf(span)})
			}
			s = s[i+j+2:]
		}
	}

	// Known cell values appearing as substrings, longest first so
	// "new york city" wins over "york". Equal lengths go by earliest
	// position in the question, then lexicographically, so the choice
	// never depends on map iteration order.
	lower := " " + strings.ToLower(nl) + " "
	type match struct {
		val string
		pos int
	}
	var matches []match
	for val := range l.cellCols {
		if pos := wordIndex(lower, val); pos >= 0 {
			matches = append(matches, match{val, pos})
		}
	}
	sort.Slice(matches, func(i, j int) bool {
		a, b := matches[i], matches[j]
		if len(a.val) != len(b.val) {
			return len(a.val) > len(b.val)
		}
		if a.pos != b.pos {
			return a.pos < b.pos
		}
		return a.val < b.val
	})
	// Skip values subsumed by an already-added longer match.
	for _, m := range matches {
		if seen[m.val] {
			continue
		}
		covered := false
		for s := range seen {
			if strings.Contains(s, m.val) {
				covered = true
				break
			}
		}
		if !covered {
			add(NLValue{Text: m.val, Columns: l.columnsOf(m.val)})
		}
	}

	// Numbers.
	for _, tok := range text.Tokenize(nl) {
		if _, err := strconv.ParseFloat(tok, 64); err == nil {
			add(NLValue{Text: tok, IsNum: true})
		}
	}
	return out
}

// wordIndex returns the position of the earliest whole-word occurrence
// of val in the padded, lower-cased question — preceded by a space and
// followed by a space, '?', '.' or ',' — or -1.
func wordIndex(lower, val string) int {
	for off := 0; off < len(lower); {
		i := strings.Index(lower[off:], val)
		if i < 0 {
			return -1
		}
		i += off
		if end := i + len(val); i > 0 && lower[i-1] == ' ' && end < len(lower) && strings.IndexByte(" ?.,", lower[end]) >= 0 {
			return i
		}
		off = i + 1
	}
	return -1
}

func (l *Linker) columnsOf(value string) []ColRef {
	return l.cellCols[strings.ToLower(value)]
}

// RequiredColumns returns the columns implied by the NL query's linked
// values: for every extracted value with column hints, those columns.
func (l *Linker) RequiredColumns(nl string) []ColRef {
	var out []ColRef
	for _, v := range l.Extract(nl) {
		out = append(out, v.Columns...)
	}
	return out
}

// DialectMentionsColumns reports whether the dialect expression mentions
// at least one of each required value's columns (by the column's NL
// annotation). With no required values it returns true. It is
// MentionsColumns over Extract(nl).
func (l *Linker) DialectMentionsColumns(nl, dialectExpr string) bool {
	return l.MentionsColumns(l.Extract(nl), dialectExpr)
}

// MentionsColumns is DialectMentionsColumns over the question's
// already-extracted values, so a translation filters every candidate
// with one extraction.
func (l *Linker) MentionsColumns(vals []NLValue, dialectExpr string) bool {
	var dl string
	for _, v := range vals {
		if len(v.Columns) == 0 {
			continue
		}
		if dl == "" {
			dl = strings.ToLower(dialectExpr)
		}
		found := false
		for _, ref := range v.Columns {
			_, col := l.db.Column(ref.Table, ref.Column)
			if col == nil {
				continue
			}
			if strings.Contains(dl, strings.ToLower(col.NL())) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// FillPlaceholders returns a copy of the query with placeholder literals
// replaced by values extracted from the NL query. Values are assigned by
// type and column linking: a placeholder compared against a numeric
// column takes the next unused number; a text-column placeholder prefers
// a value linked to that column, then any remaining text value. It is
// Fill over Extract(nl).
func (l *Linker) FillPlaceholders(q *sqlast.Query, nl string) *sqlast.Query {
	return l.Fill(q, l.Extract(nl))
}

// Fill is FillPlaceholders over the question's already-extracted
// values. The copy it returns shares everything but its predicates
// with q (see sqlast.ClonePredicates): a translation fills every
// ranked candidate, and a cached translation keeps them all.
func (l *Linker) Fill(q *sqlast.Query, vals []NLValue) *sqlast.Query {
	out := sqlast.ClonePredicates(q)
	usedNum := map[int]bool{}
	usedText := map[int]bool{}

	takeNum := func() (string, bool) {
		for i, v := range vals {
			if v.IsNum && !usedNum[i] {
				usedNum[i] = true
				return v.Text, true
			}
		}
		return "", false
	}
	takeText := func(table, column string) (string, bool) {
		// Prefer a value linked to the exact column.
		for i, v := range vals {
			if v.IsNum || usedText[i] {
				continue
			}
			for _, ref := range v.Columns {
				if strings.EqualFold(ref.Table, table) && strings.EqualFold(ref.Column, column) {
					usedText[i] = true
					return v.Text, true
				}
			}
		}
		for i, v := range vals {
			if !v.IsNum && !usedText[i] {
				usedText[i] = true
				return v.Text, true
			}
		}
		return "", false
	}

	sqlast.WalkQueries(out, func(sub *sqlast.Query) {
		fill := func(e sqlast.Expr) {
			sqlast.WalkExprs(e, func(n sqlast.Expr) {
				switch x := n.(type) {
				case *sqlast.Binary:
					l.fillOne(x.L, x.R, sub.Select, takeNum, takeText)
				case *sqlast.Between:
					l.fillOne(x.X, x.Lo, sub.Select, takeNum, takeText)
					l.fillOne(x.X, x.Hi, sub.Select, takeNum, takeText)
				}
			})
		}
		fill(sub.Select.Where)
		fill(sub.Select.Having)
	})
	return out
}

// fillOne replaces rhs with an NL value when it is a placeholder whose
// left-hand side resolves to a column.
func (l *Linker) fillOne(lhs, rhs sqlast.Expr, s *sqlast.Select,
	takeNum func() (string, bool), takeText func(table, column string) (string, bool)) {

	lit, ok := rhs.(*sqlast.Lit)
	if !ok || lit.Kind != sqlast.PlaceholderLit {
		return
	}
	var table, column string
	colType := schema.Text
	switch c := lhs.(type) {
	case *sqlast.ColumnRef:
		if t, col := l.db.ResolveColumn(s, c); col != nil {
			table, column, colType = t.Name, col.Name, col.Type
		}
	case *sqlast.Agg:
		colType = schema.Number
	}
	if colType == schema.Number {
		if v, ok := takeNum(); ok {
			lit.Kind = sqlast.NumberLit
			lit.Text = v
		}
		return
	}
	if v, ok := takeText(table, column); ok {
		lit.Kind = sqlast.StringLit
		lit.Text = v
	}
}
