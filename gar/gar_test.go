package gar_test

import (
	"strings"
	"testing"

	"repro/gar"
)

func companyDB() *gar.Database {
	db := gar.NewDatabase("company")
	db.AddTable("employee", gar.Key("employee_id"),
		gar.NumberColumn("employee_id", "employee id"),
		gar.TextColumn("name", "name"),
		gar.NumberColumn("age", "age"),
		gar.TextColumn("city", "city"))
	db.AddTable("evaluation", gar.Key("employee_id", "year_awarded"),
		gar.NumberColumn("employee_id", "employee id"),
		gar.TextColumn("year_awarded", "year awarded"),
		gar.NumberColumn("bonus", "bonus"))
	db.AddForeignKey("evaluation", "employee_id", "employee", "employee_id")
	return db
}

func samples() []string {
	return []string{
		"SELECT name FROM employee WHERE age > 30",
		"SELECT age FROM employee WHERE city = 'Austin'",
		"SELECT COUNT(*) FROM employee",
		"SELECT city, COUNT(*) FROM employee GROUP BY city",
		"SELECT name FROM employee ORDER BY age DESC LIMIT 1",
		"SELECT AVG(bonus) FROM evaluation",
		"SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1",
		"SELECT city FROM employee",
	}
}

func examples() []gar.Example {
	return []gar.Example{
		{Question: "which employees are older than 30", SQL: "SELECT name FROM employee WHERE age > 30"},
		{Question: "what is the age of employees in Austin", SQL: "SELECT age FROM employee WHERE city = 'Austin'"},
		{Question: "how many employees are there", SQL: "SELECT COUNT(*) FROM employee"},
		{Question: "how many employees per city", SQL: "SELECT city, COUNT(*) FROM employee GROUP BY city"},
		{Question: "who is the oldest employee", SQL: "SELECT name FROM employee ORDER BY age DESC LIMIT 1"},
		{Question: "what is the average bonus", SQL: "SELECT AVG(bonus) FROM evaluation"},
		{Question: "who got the highest one time bonus",
			SQL: "SELECT T1.name FROM employee AS T1 JOIN evaluation AS T2 ON T1.employee_id = T2.employee_id ORDER BY T2.bonus DESC LIMIT 1"},
		{Question: "list the cities of employees", SQL: "SELECT city FROM employee"},
	}
}

func trainedSystem(t *testing.T) *gar.System {
	t.Helper()
	sys, err := gar.New(companyDB(), gar.Options{GeneralizeSize: 400, RetrievalK: 10, Seed: 5,
		EncoderEpochs: 10, RerankEpochs: 25})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Prepare(samples()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(examples()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := trainedSystem(t)
	if sys.PoolSize() < len(samples()) {
		t.Fatalf("pool too small: %d", sys.PoolSize())
	}
	res, err := sys.Translate("how many employees are there")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := gar.ExactMatch(res.SQL, "SELECT COUNT(*) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("translation wrong: %s (dialect %q)", res.SQL, res.Dialect)
	}
	if len(res.Candidates) == 0 || res.Candidates[0].SQL != res.SQL {
		t.Error("candidates inconsistent with top result")
	}
	if sys.ExecGuide() {
		t.Error("ExecGuide reports on for a system built without Options.ExecGuide")
	}
}

func TestPublicAPIValidation(t *testing.T) {
	bad := gar.NewDatabase("x")
	bad.AddTable("t", gar.Key("missing"), gar.TextColumn("a", "a"))
	if _, err := gar.New(bad, gar.Options{}); err == nil {
		t.Error("invalid schema accepted")
	}
	sys, err := gar.New(companyDB(), gar.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Prepare([]string{"not sql at all"}); err == nil {
		t.Error("unparsable sample accepted")
	}
	if err := sys.Prepare([]string{"SELECT x FROM nosuch"}); err == nil {
		t.Error("unbindable sample accepted")
	}
}

func TestExplain(t *testing.T) {
	sys := trainedSystem(t)
	expl, err := sys.Explain("SELECT name FROM employee ORDER BY age DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Find the name of employee", "descending order of the age"} {
		if !strings.Contains(expl, want) {
			t.Errorf("Explain missing %q: %s", want, expl)
		}
	}
	if _, err := sys.Explain("SELECT"); err == nil {
		t.Error("Explain accepted broken SQL")
	}
}

func TestContentAndValueLinking(t *testing.T) {
	db := companyDB()
	sys, err := gar.New(db, gar.Options{GeneralizeSize: 400, RetrievalK: 10, Seed: 5,
		EncoderEpochs: 10, RerankEpochs: 25})
	if err != nil {
		t.Fatal(err)
	}
	content := gar.NewContent(db)
	if err := content.Insert("employee", 1, "George", 45, "Madrid"); err != nil {
		t.Fatal(err)
	}
	if err := content.Insert("employee", 2, "John", 32, "Austin"); err != nil {
		t.Fatal(err)
	}
	sys.SetContent(content)
	if err := sys.Prepare(samples()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(examples()); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Translate("what is the age of employees in Austin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.ToLower(res.SQL), "austin") {
		t.Errorf("value not linked into SQL: %s", res.SQL)
	}
	rows, err := content.Query(res.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0] != "32" {
		t.Errorf("execution result wrong: %v", rows)
	}
}

func TestContentErrors(t *testing.T) {
	content := gar.NewContent(companyDB())
	if err := content.Insert("nosuch", 1); err == nil {
		t.Error("insert into unknown table accepted")
	}
	if err := content.Insert("employee", 1, "x"); err == nil {
		t.Error("short row accepted")
	}
	if err := content.Insert("employee", 1, "x", struct{}{}, "y"); err == nil {
		t.Error("unsupported value type accepted")
	}
	if _, err := content.Query("SELECT nosuch FROM employee"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestCrossDatabaseModels(t *testing.T) {
	train := trainedSystem(t)
	models, err := gar.TrainModels([]gar.TrainingSet{{System: train, Examples: examples()}},
		gar.Options{Seed: 5, EncoderEpochs: 10, RerankEpochs: 25, RetrievalK: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Deploy on a fresh schema.
	shopDB := gar.NewDatabase("shops")
	shopDB.AddTable("shop", gar.Key("shop_id"),
		gar.NumberColumn("shop_id", "shop id"),
		gar.TextColumn("shop_name", "name"),
		gar.NumberColumn("products", "number of products"))
	sys, err := gar.New(shopDB, gar.Options{GeneralizeSize: 100, RetrievalK: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Prepare([]string{
		"SELECT shop_name FROM shop",
		"SELECT COUNT(*) FROM shop",
		"SELECT shop_name FROM shop ORDER BY products DESC LIMIT 1",
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.UseModels(models); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Translate("how many shops are there")
	if err != nil {
		t.Fatal(err)
	}
	if res.SQL == "" {
		t.Fatal("no translation on unseen database")
	}
}

func TestExactMatchHelper(t *testing.T) {
	ok, err := gar.ExactMatch("SELECT a, b FROM t", "SELECT b, a FROM t")
	if err != nil || !ok {
		t.Errorf("set-equal select lists should match: %v %v", ok, err)
	}
	ok, _ = gar.ExactMatch("SELECT a FROM t", "SELECT b FROM t")
	if ok {
		t.Error("different queries matched")
	}
	if _, err := gar.ExactMatch("garbage", "SELECT a FROM t"); err == nil {
		t.Error("garbage accepted")
	}
}
