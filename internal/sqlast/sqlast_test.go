package sqlast_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// randomQuery generates a random valid query for property tests by
// assembling clauses from small pools.
func randomQuery(rng *rand.Rand) *sqlast.Query {
	cols := []string{"a", "b", "c"}
	col := func() *sqlast.ColumnRef {
		return &sqlast.ColumnRef{Table: "t", Column: cols[rng.Intn(len(cols))]}
	}
	s := &sqlast.Select{From: sqlast.From{Tables: []sqlast.TableRef{{Name: "t"}}}}
	s.Items = append(s.Items, sqlast.SelectItem{Expr: col()})
	if rng.Intn(2) == 0 {
		s.Items = append(s.Items, sqlast.SelectItem{Expr: &sqlast.Agg{Func: sqlast.Count, Arg: &sqlast.ColumnRef{Column: "*"}}})
	}
	if rng.Intn(2) == 0 {
		s.Where = &sqlast.Binary{Op: ">", L: col(), R: sqlast.NumberLitOf(rng.Intn(100))}
		if rng.Intn(2) == 0 {
			s.Where = &sqlast.Binary{Op: "AND", L: s.Where,
				R: &sqlast.Binary{Op: "=", L: col(), R: &sqlast.Lit{Kind: sqlast.StringLit, Text: "x"}}}
		}
	}
	if rng.Intn(3) == 0 {
		s.GroupBy = []*sqlast.ColumnRef{col()}
	}
	if rng.Intn(3) == 0 {
		s.OrderBy = []sqlast.OrderItem{{Expr: col(), Desc: rng.Intn(2) == 0}}
		if rng.Intn(2) == 0 {
			s.Limit = 1 + rng.Intn(5)
		}
	}
	q := &sqlast.Query{Select: s}
	if rng.Intn(4) == 0 {
		q.Op = sqlast.Union
		q.Right = &sqlast.Query{Select: &sqlast.Select{
			Items: []sqlast.SelectItem{{Expr: col()}},
			From:  sqlast.From{Tables: []sqlast.TableRef{{Name: "t"}}},
		}}
	}
	return q
}

var queryGenCfg = &quick.Config{
	MaxCount: 300,
	Values: func(vals []reflect.Value, rng *rand.Rand) {
		vals[0] = reflect.ValueOf(randomQuery(rng))
	},
}

// TestPrintParseRoundTripProperty: printing any generated query and
// re-parsing it yields the identical printed form (a parser/printer
// fixed point).
func TestPrintParseRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(q *sqlast.Query) bool {
		printed := q.String()
		re, err := sqlparse.Parse(printed)
		if err != nil {
			t.Logf("reparse failed for %q: %v", printed, err)
			return false
		}
		return re.String() == printed
	}, queryGenCfg); err != nil {
		t.Error(err)
	}
}

// TestCloneIndependenceProperty: mutating a clone never changes the
// original's printed form.
func TestCloneIndependenceProperty(t *testing.T) {
	if err := quick.Check(func(q *sqlast.Query) bool {
		before := q.String()
		c := q.Clone()
		sqlast.MaskValues(c)
		c.Select.Items = nil
		c.Select.Limit = 99
		return q.String() == before
	}, queryGenCfg); err != nil {
		t.Error(err)
	}
}

// TestFingerprintInvarianceProperty: a query and its clone share a
// fingerprint; masking values does not change it.
func TestFingerprintInvarianceProperty(t *testing.T) {
	if err := quick.Check(func(q *sqlast.Query) bool {
		c := q.Clone()
		sqlast.MaskValues(c)
		return sqlast.Fingerprint(q) == sqlast.Fingerprint(c)
	}, queryGenCfg); err != nil {
		t.Error(err)
	}
}

func TestSetOpString(t *testing.T) {
	if sqlast.Union.String() != "UNION" || sqlast.Intersect.String() != "INTERSECT" ||
		sqlast.Except.String() != "EXCEPT" || sqlast.SetNone.String() != "" {
		t.Error("SetOp names wrong")
	}
}

func TestExprString(t *testing.T) {
	cases := []struct {
		expr sqlast.Expr
		want string
	}{
		{&sqlast.ColumnRef{Table: "t", Column: "a"}, "t.a"},
		{&sqlast.ColumnRef{Column: "*"}, "*"},
		{&sqlast.Agg{Func: sqlast.Count, Arg: &sqlast.ColumnRef{Column: "*"}}, "COUNT(*)"},
		{&sqlast.Agg{Func: sqlast.Sum, Distinct: true, Arg: &sqlast.ColumnRef{Column: "a"}}, "SUM(DISTINCT a)"},
		{&sqlast.Lit{Kind: sqlast.StringLit, Text: "x"}, "'x'"},
		{sqlast.Placeholder(), "'value'"},
		{sqlast.NumberLitOf(7), "7"},
	}
	for _, c := range cases {
		if got := sqlast.ExprString(c.expr); got != c.want {
			t.Errorf("ExprString = %q, want %q", got, c.want)
		}
	}
}

func TestPrintParenthesizesOrUnderAnd(t *testing.T) {
	// A AND (B OR C) must print with parentheses to re-parse equally.
	q := sqlparse.MustParse("SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3)")
	s := q.String()
	if !strings.Contains(s, "(") {
		t.Errorf("OR under AND not parenthesized: %s", s)
	}
	re := sqlparse.MustParse(s)
	if re.String() != s {
		t.Errorf("round trip broken: %s vs %s", s, re)
	}
}

func TestBlocksAndIsCompound(t *testing.T) {
	q := sqlparse.MustParse("SELECT a FROM t")
	if q.IsCompound() || len(q.Blocks()) != 1 {
		t.Error("simple query misclassified")
	}
	var nilQ *sqlast.Query
	if nilQ.IsCompound() {
		t.Error("nil query is compound")
	}
	if nilQ.Clone() != nil {
		t.Error("nil clone not nil")
	}
}

func TestWalkQueriesCoversDerivedTables(t *testing.T) {
	q := sqlparse.MustParse("SELECT a FROM (SELECT a FROM t WHERE b IN (SELECT c FROM s)) AS x")
	count := 0
	sqlast.WalkQueries(q, func(*sqlast.Query) { count++ })
	if count != 3 {
		t.Errorf("WalkQueries visited %d queries, want 3", count)
	}
}

func TestPredicatesNil(t *testing.T) {
	if sqlast.Predicates(nil) != nil {
		t.Error("Predicates(nil) should be nil")
	}
}

// rewriteLiterals replaces every literal in the query's predicates, at
// every nesting level, in place.
func rewriteLiterals(q *sqlast.Query) {
	sqlast.WalkQueries(q, func(sub *sqlast.Query) {
		for _, e := range []sqlast.Expr{sub.Select.Where, sub.Select.Having} {
			sqlast.WalkExprs(e, func(n sqlast.Expr) {
				if l, ok := n.(*sqlast.Lit); ok {
					l.Kind, l.Text = sqlast.StringLit, "rewritten"
				}
			})
		}
	})
}

// TestClonePredicatesIndependence: a predicate copy prints like the
// original, and rewriting its literals — which is what placeholder
// filling does — never changes the original, derived tables, nested
// subqueries and compound arms included.
func TestClonePredicatesIndependence(t *testing.T) {
	check := func(q *sqlast.Query) bool {
		before := q.String()
		c := sqlast.ClonePredicates(q)
		if c.String() != before {
			return false
		}
		rewriteLiterals(c)
		return q.String() == before
	}
	if err := quick.Check(check, queryGenCfg); err != nil {
		t.Error(err)
	}
	for _, src := range []string{
		"SELECT d.a FROM (SELECT a FROM t WHERE b > 3) AS d WHERE d.a = 'v'",
		"SELECT a FROM t WHERE a IN (SELECT c FROM u WHERE d < 2) UNION SELECT a FROM t WHERE b = 'w'",
		"SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 4 ORDER BY a LIMIT 3",
	} {
		q, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !check(q) {
			t.Errorf("%s: rewriting the predicate copy changed the original", src)
		}
	}
}
