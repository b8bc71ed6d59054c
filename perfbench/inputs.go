package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/datasets"
	"repro/internal/engine"
	"repro/internal/schema"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
)

// specJSON is the database spec `gar -spec` reads (see the spec type
// in cmd/gar/main.go); the benchmark writes one for the server.
type specJSON struct {
	Database struct {
		Name   string      `json:"name"`
		Tables []tableJSON `json:"tables"`
	} `json:"database"`
	Samples  []string           `json:"samples"`
	Examples []exampleJSON      `json:"examples"`
	Content  map[string][][]any `json:"content,omitempty"`
}

type tableJSON struct {
	Name       string       `json:"name"`
	Annotation string       `json:"annotation,omitempty"`
	PrimaryKey []string     `json:"primaryKey,omitempty"`
	Columns    []columnJSON `json:"columns"`
}

type columnJSON struct {
	Name string `json:"name"`
	NL   string `json:"nl"`
	Type string `json:"type"`
}

type exampleJSON struct {
	Question string `json:"question"`
	SQL      string `json:"sql"`
}

// request is one question of the stream, with its gold SQL.
type request struct {
	question string
	gold     string
}

// inputs are everything one run sends: the spec on disk and the
// question stream, all derived from the seed.
type inputs struct {
	// path is the spec file the server reads; db is its schema, which
	// answers are bound against.
	path string
	db   *schema.Database
	// stream is the send order. Clients take stream[i%len(stream)], so a
	// run that outlasts the stream repeats it (and reports the repeats).
	stream []request
	// warmup is how many stream questions the warm-up phase sends. They
	// are the accuracy set: top1_exact is scored on their answers, so it
	// covers the same questions in every run.
	warmup int
}

// geoGenSeed fixes the GEO-like database, its sample queries and
// training examples. The run seed picks and orders the questions: with
// the database fixed, the spread between seeds measures the program,
// not the accuracy differences between generated databases.
const geoGenSeed = 1

// geoTrain is the number of generated items that become sample queries
// and training examples (the GeoLike default train split).
const geoTrain = 150

// geoAccuracy is the size of the GEO-like accuracy set: the first
// generated questions after the training split, the counterpart of the
// generator's test split. Later draws are ever rarer query shapes.
const geoAccuracy = 300

// geoItems is how many distinct items to draw from the GEO-like
// generator: the training split plus the question pool. It stays below
// the generator's distinct-query cap for geoGenSeed, so drawing stops
// early instead of exhausting the attempt budget.
const geoItems = 4600

// makeGeoInputs writes the GEO-like spec into dir and returns the
// question stream: every generated question that is not a training
// example, deduplicated — the accuracy set first, then the rest, each
// in seed-shuffled order.
func makeGeoInputs(dir string, seed int64) (*inputs, error) {
	b := datasets.GeoLike(datasets.GeoConfig{Train: geoTrain, Val: 1, Test: geoItems - geoTrain - 1, Seed: geoGenSeed})
	var items []datasets.Item
	items = append(items, b.Train...)
	items = append(items, b.Val...)
	items = append(items, b.Test...)
	if len(items) < geoTrain+geoAccuracy+2000 {
		return nil, fmt.Errorf("GEO-like generator drew only %d items", len(items))
	}
	bundle := b.DBs["geo"]
	if len(bundle.Schema.ForeignKeys) > 0 || len(bundle.Schema.JoinAnnotations) > 0 {
		return nil, fmt.Errorf("GEO-like schema has joins, which the spec writer does not render")
	}
	sp := specFromSchema(bundle.Schema)
	trainNL := map[string]bool{}
	for _, it := range items[:geoTrain] {
		sp.Samples = append(sp.Samples, it.Gold.String())
		sp.Examples = append(sp.Examples, exampleJSON{Question: it.NL, SQL: it.Gold.String()})
		trainNL[it.NL] = true
	}
	sp.Content = contentJSON(bundle.Schema, bundle.Content)
	path := filepath.Join(dir, "geo.json")
	if err := writeSpec(path, sp); err != nil {
		return nil, err
	}
	db, err := loadSchema(path)
	if err != nil {
		return nil, err
	}
	in := &inputs{path: path, db: db}
	seen := map[string]bool{}
	for _, it := range items[geoTrain:] {
		if trainNL[it.NL] || seen[it.NL] {
			continue
		}
		seen[it.NL] = true
		in.stream = append(in.stream, request{question: it.NL, gold: it.Gold.String()})
	}
	in.warmup = geoAccuracy
	rng := rand.New(rand.NewSource(seed))
	shuffle(rng, in.stream[:in.warmup])
	shuffle(rng, in.stream[in.warmup:])
	return in, nil
}

func shuffle(rng *rand.Rand, rs []request) {
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
}

// specFromSchema renders a schema in the spec's JSON shape.
func specFromSchema(db *schema.Database) *specJSON {
	sp := &specJSON{}
	sp.Database.Name = db.Name
	for _, t := range db.Tables {
		tj := tableJSON{Name: t.Name, Annotation: t.Annotation, PrimaryKey: t.PrimaryKey}
		for _, c := range t.Columns {
			tj.Columns = append(tj.Columns, columnJSON{Name: c.Name, NL: c.Annotation, Type: c.Type.String()})
		}
		sp.Database.Tables = append(sp.Database.Tables, tj)
	}
	return sp
}

// contentJSON renders an instance's rows in the spec's JSON shape.
func contentJSON(db *schema.Database, in *engine.Instance) map[string][][]any {
	out := map[string][][]any{}
	for _, t := range db.Tables {
		td := in.Tables[strings.ToLower(t.Name)]
		if td == nil {
			continue
		}
		for _, row := range td.Rows {
			r := make([]any, len(row))
			for i, v := range row {
				switch {
				case v.Null:
					r[i] = nil
				case v.IsNum:
					r[i] = v.Num
				default:
					r[i] = v.Str
				}
			}
			out[t.Name] = append(out[t.Name], r)
		}
	}
	return out
}

func writeSpec(path string, sp *specJSON) error {
	data, err := json.MarshalIndent(sp, "", " ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, data, 0o644)
}

func readSpec(path string) (*specJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp := &specJSON{}
	if err := json.Unmarshal(data, sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return sp, nil
}

// loadSchema reads a spec back from disk and builds its schema.
func loadSchema(path string) (*schema.Database, error) {
	sp, err := readSpec(path)
	if err != nil {
		return nil, err
	}
	db := schemaOf(sp)
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// schemaOf builds the schema from a spec the way `gar serve` does
// (cmd/gar newSystem through the gar package's schema builder).
func schemaOf(sp *specJSON) *schema.Database {
	db := &schema.Database{Name: sp.Database.Name}
	for _, tj := range sp.Database.Tables {
		t := &schema.Table{Name: tj.Name, Annotation: tj.Annotation, PrimaryKey: tj.PrimaryKey}
		for _, c := range tj.Columns {
			typ := schema.Text
			if strings.EqualFold(c.Type, "number") {
				typ = schema.Number
			}
			t.Columns = append(t.Columns, &schema.Column{Name: c.Name, Type: typ, Annotation: c.NL})
		}
		db.Tables = append(db.Tables, t)
	}
	return db
}

// contentOf builds the spec's content instance the way gar.Content
// does: JSON numbers become numbers, strings text, null NULL.
func contentOf(sp *specJSON, db *schema.Database) (*engine.Instance, error) {
	if len(sp.Content) == 0 {
		return nil, nil
	}
	in := engine.NewInstance(db)
	for table, rows := range sp.Content {
		for _, row := range rows {
			vals := make([]engine.Value, 0, len(row))
			for _, v := range row {
				switch x := v.(type) {
				case string:
					vals = append(vals, engine.Str(x))
				case float64:
					vals = append(vals, engine.Num(x))
				case nil:
					vals = append(vals, engine.NullValue())
				default:
					return nil, fmt.Errorf("content of %s: unsupported value %T", table, v)
				}
			}
			if err := in.Insert(table, vals...); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

// parseBound parses SQL and binds it against the schema: the check
// every served answer must pass.
func parseBound(db *schema.Database, sql string) (*sqlast.Query, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := db.Bind(q); err != nil {
		return nil, err
	}
	return q, nil
}
