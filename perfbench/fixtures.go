package main

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/workload"
)

// censusSA is the paper's choice of SA for the census data (§VII).
var censusSA = []string{"Age", "Gender"}

var (
	// brazil is the paper's Brazil census shape at small scale
	// (Table III): 64 × 2 × 64 × 64 = 524 288 cells.
	brazil = dataset.BrazilSpec(dataset.ScaleSmall)
)

// table is one publishable input: the CSV the server receives and the
// parameters it is published with. ref is the in-process reference
// release built from the same bytes with the same schema, SA and seed.
type table struct {
	spec   string
	schema *dataset.Schema
	sa     []string
	seed   uint64
	csv    []byte
	ref    *privelet.Release
}

const epsilon = 1.0

// publishQuery is the publish request's query string.
func (t *table) publishQuery() string {
	v := url.Values{}
	v.Set("schema", t.spec)
	v.Set("epsilon", strconv.FormatFloat(epsilon, 'g', -1, 64))
	v.Set("seed", strconv.FormatUint(t.seed, 10))
	if len(t.sa) > 0 {
		v.Set("sa", strings.Join(t.sa, ","))
	}
	return v.Encode()
}

// newCensus generates a census table of rows tuples.
func newCensus(spec dataset.CensusSpec, rows int, dataSeed, noiseSeed uint64) (*table, error) {
	tbl, err := dataset.GenerateCensus(spec, rows, dataSeed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cli.WriteTableCSV(&buf, tbl); err != nil {
		return nil, err
	}
	schema := fmt.Sprintf("Age:ordinal:%d,Gender:nominal:flat:2,Occupation:nominal:3level:%dx%d,Income:ordinal:%d",
		spec.AgeSize, spec.OccGroups, spec.OccPerGroup, spec.IncomeSize)
	return newTable(schema, censusSA, noiseSeed, buf.Bytes())
}

// newTable parses the schema and builds the reference release the way
// the server does: stream the CSV into a Publisher, then publish.
func newTable(spec string, sa []string, seed uint64, csv []byte) (*table, error) {
	schema, err := cli.ParseSchema(spec)
	if err != nil {
		return nil, err
	}
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		return nil, err
	}
	if err := cli.ReadRows(schema, bytes.NewReader(csv), pub.Add); err != nil {
		return nil, err
	}
	ref, err := privelet.PublishWith(context.Background(), "privelet+", pub.Frequency(),
		privelet.Params{Epsilon: epsilon, SA: sa, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &table{spec: spec, schema: schema, sa: sa, seed: seed, csv: csv, ref: ref}, nil
}

// queries is a generated §VII-A query set with its reference answers.
type queries struct {
	specs []string
	want  []float64
	body  []byte // one spec per line: the workload wire format
}

// newQueries draws n random queries (1–4 predicates) against t's
// schema and answers them from t's reference release.
func newQueries(t *table, n int, seed uint64) (*queries, error) {
	gen, err := workload.NewGenerator(t.schema, 4)
	if err != nil {
		return nil, err
	}
	qs, err := gen.Queries(n, rng.New(seed))
	if err != nil {
		return nil, err
	}
	out := &queries{specs: make([]string, n), want: make([]float64, n)}
	var body bytes.Buffer
	for i, q := range qs {
		out.specs[i] = q.Spec(t.schema)
		if out.want[i], err = t.ref.Count(q); err != nil {
			return nil, err
		}
		body.WriteString(out.specs[i])
		body.WriteByte('\n')
	}
	out.body = body.Bytes()
	return out, nil
}

// dropRefs releases the reference releases once every query set has
// its answers, so the load generator's heap (and its collector) stays
// small while it measures.
func dropRefs(ts ...*table) {
	for _, t := range ts {
		t.ref = nil
	}
}

// equalAnswers compares served answers to the reference with float64 ==.
func equalAnswers(what string, got, want []float64) error {
	if len(got) != len(want) {
		return &mismatch{fmt.Sprintf("%s: %d answers, want %d", what, len(got), len(want))}
	}
	for i := range got {
		if got[i] != want[i] {
			return &mismatch{fmt.Sprintf("%s: answer %d = %v, reference %v", what, i, got[i], want[i])}
		}
	}
	return nil
}

// seedFor derives a fixture seed from the run seed, so every input of a
// run follows from --seed alone.
func seedFor(run uint64, stream uint64) uint64 { return rng.SubstreamSeed(run, stream) }
