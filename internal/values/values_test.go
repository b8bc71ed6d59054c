package values_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/schema/schematest"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/values"
)

func linkerWithContent() *values.Linker {
	db := schematest.Employee()
	in := engine.NewInstance(db)
	n, s := engine.Num, engine.Str
	in.MustInsert("employee", n(1), s("George"), n(45), s("Madrid"))
	in.MustInsert("employee", n(2), s("John"), n(32), s("Austin"))
	in.MustInsert("shop", n(1), s("Red Bull"), s("Madrid"), s("Center"), n(120), s("Carla"))
	return values.NewLinker(db, in)
}

func TestExtractNumbersAndQuotes(t *testing.T) {
	l := values.NewLinker(schematest.Employee(), nil)
	vals := l.Extract(`employees older than 30 named "John Smith"`)
	var nums, texts []string
	for _, v := range vals {
		if v.IsNum {
			nums = append(nums, v.Text)
		} else {
			texts = append(texts, v.Text)
		}
	}
	if len(nums) != 1 || nums[0] != "30" {
		t.Errorf("numbers = %v", nums)
	}
	if len(texts) != 1 || texts[0] != "John Smith" {
		t.Errorf("texts = %v", texts)
	}
}

func TestExtractCellValues(t *testing.T) {
	l := linkerWithContent()
	vals := l.Extract("which employees live in Austin")
	found := false
	for _, v := range vals {
		if strings.EqualFold(v.Text, "austin") {
			found = true
			if len(v.Columns) == 0 {
				t.Error("cell value lacks column hints")
			}
		}
	}
	if !found {
		t.Errorf("Austin not extracted: %+v", vals)
	}
	// Multi-word cell value.
	vals = l.Extract("mechanics of the red bull team")
	found = false
	for _, v := range vals {
		if strings.EqualFold(v.Text, "red bull") {
			found = true
		}
	}
	if !found {
		t.Errorf("multi-word cell value not extracted: %+v", vals)
	}
}

func TestDialectMentionsColumns(t *testing.T) {
	l := linkerWithContent()
	nl := "which employees live in Austin"
	good := "Find the name of employee. Return results only for employee that city is value."
	bad := "Find the name of employee. Return results only for employee that age is greater than value."
	if !l.DialectMentionsColumns(nl, good) {
		t.Error("dialect mentioning 'city' should pass")
	}
	if l.DialectMentionsColumns(nl, bad) {
		t.Error("dialect without 'city' should be filtered")
	}
	// No linked values: everything passes.
	if !l.DialectMentionsColumns("how many employees", bad) {
		t.Error("value-free NL should not filter")
	}
}

func TestFillPlaceholders(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'value' AND age > 'value'")
	schematest.Employee() // (db only used through linker)
	out := l.FillPlaceholders(q, "employees in Austin older than 30")
	s := out.String()
	if !strings.Contains(s, "city = 'Austin'") && !strings.Contains(s, "city = 'austin'") {
		t.Errorf("city placeholder not filled: %s", s)
	}
	if !strings.Contains(s, "age > 30") {
		t.Errorf("age placeholder not filled: %s", s)
	}
	// The input query must not be modified.
	if !strings.Contains(q.String(), "'value'") {
		t.Error("FillPlaceholders mutated its input")
	}
}

func TestFillPlaceholdersNested(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE employee_id IN (SELECT employee_id FROM evaluation WHERE bonus > 'value')")
	out := l.FillPlaceholders(q, "employees with a bonus over 1000")
	if !strings.Contains(out.String(), "bonus > 1000") {
		t.Errorf("nested placeholder not filled: %s", out)
	}
}

func TestFillPlaceholdersHaving(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT city FROM employee GROUP BY city HAVING COUNT(*) > 'value'")
	out := l.FillPlaceholders(q, "cities with more than 3 employees")
	if !strings.Contains(out.String(), "COUNT(*) > 3") {
		t.Errorf("having placeholder not filled: %s", out)
	}
}

func TestFillPlaceholdersNoValues(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'value'")
	out := l.FillPlaceholders(q, "show employees in that city")
	lit := out.Select.Where.(*sqlast.Binary).R.(*sqlast.Lit)
	if lit.Kind != sqlast.PlaceholderLit {
		t.Errorf("placeholder should survive when no value is available: %s", out)
	}
}

func TestRequiredColumns(t *testing.T) {
	l := linkerWithContent()
	cols := l.RequiredColumns("employees in Madrid")
	if len(cols) == 0 {
		t.Fatal("Madrid should imply columns")
	}
	// Madrid occurs in employee.city and shop.location.
	tables := map[string]bool{}
	for _, c := range cols {
		tables[strings.ToLower(c.Table)] = true
	}
	if !tables["employee"] || !tables["shop"] {
		t.Errorf("expected hints in employee and shop: %+v", cols)
	}
}

// TestExtractTiesDeterministic pins the tie-break between cell values
// of equal length: earliest in the question first, then
// lexicographically — never map iteration order. Repeating one tied
// question must give one answer, for extraction and for filling.
func TestExtractTiesDeterministic(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'value'")
	const nl = "employees in madrid or austin"
	texts := map[string]bool{}
	fills := map[string]bool{}
	for i := 0; i < 100; i++ {
		var got []string
		for _, v := range l.Extract(nl) {
			got = append(got, v.Text)
		}
		texts[strings.Join(got, "|")] = true
		fills[l.FillPlaceholders(q, nl).String()] = true
	}
	if len(texts) != 1 || len(fills) != 1 {
		t.Fatalf("tied question answered %d ways (%v) and filled %d ways (%v)", len(texts), texts, len(fills), fills)
	}
	if !texts["madrid|austin"] {
		t.Errorf("extraction order %v, want madrid (earlier) before austin", texts)
	}
	// The position rung, in the other direction.
	for _, v := range l.Extract("employees in austin or madrid") {
		if !v.IsNum {
			if v.Text != "austin" {
				t.Errorf("first value %q, want austin", v.Text)
			}
			break
		}
	}
}

// TestFilterAndFillTakeExtractedValues pins the once-per-request
// forms to the per-candidate wrappers.
func TestFilterAndFillTakeExtractedValues(t *testing.T) {
	l := linkerWithContent()
	q := sqlparse.MustParse("SELECT name FROM employee WHERE city = 'value' AND age > 'value'")
	for _, nl := range []string{"employees in Austin older than 30", "how many employees", `shops named "Red Bull" in madrid`} {
		vals := l.Extract(nl)
		for _, d := range []string{
			"Find the name of employee. Return results only for employee that city is value.",
			"Find the name of employee. Return results only for employee that age is greater than value.",
		} {
			if l.MentionsColumns(vals, d) != l.DialectMentionsColumns(nl, d) {
				t.Errorf("MentionsColumns(%q, %q) disagrees with DialectMentionsColumns", nl, d)
			}
		}
		if got, want := l.Fill(q, vals).String(), l.FillPlaceholders(q, nl).String(); got != want {
			t.Errorf("Fill(%q) = %s, FillPlaceholders = %s", nl, got, want)
		}
	}
}
