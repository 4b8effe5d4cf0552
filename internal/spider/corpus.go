package spider

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
	"repro/internal/sqlir"
)

// Example is one NL2SQL task: an NL query over a database with its gold SQL.
type Example struct {
	ID      int
	DB      *schema.Database
	NL      string
	Gold    *sqlir.Select
	GoldSQL string
	Class   CompositionClass
	Variant string // "", "syn", "realistic", "dk"
	// LinkNoise is the extra schema-linking difficulty the variant's NL style
	// imposes on the simulated LLM (the lexical stress is additionally felt
	// by the trained classifier/predictor through their features).
	LinkNoise float64
	Hardness  string // easy / medium / hard / extra
}

// Benchmark is one evaluation split.
type Benchmark struct {
	Name      string
	Databases []*schema.Database
	Examples  []*Example
}

// Stats summarizes a benchmark for Table 3.
type Stats struct {
	Queries   int
	Databases int
	AvgNLLen  float64
	AvgSQLLen float64
}

// Stat computes the Table 3 statistics row for the benchmark.
func (b *Benchmark) Stat() Stats {
	var nl, sq int
	for _, e := range b.Examples {
		nl += len(e.NL)
		sq += len(e.GoldSQL)
	}
	n := len(b.Examples)
	if n == 0 {
		return Stats{Databases: len(b.Databases)}
	}
	return Stats{
		Queries:   n,
		Databases: len(b.Databases),
		AvgNLLen:  float64(nl) / float64(n),
		AvgSQLLen: float64(sq) / float64(n),
	}
}

// Corpus bundles the five splits of Table 3.
type Corpus struct {
	Train     *Benchmark
	Dev       *Benchmark
	DK        *Benchmark
	Syn       *Benchmark
	Realistic *Benchmark
}

// Sizes matching the paper's Table 3.
const (
	TrainQueries     = 8659
	DevQueries       = 1034
	DKQueries        = 535
	RealisticQueries = 508
	SynQueries       = 1034

	TrainDatabases = 146
	DevDatabases   = 20
	DKDatabases    = 10
)

// GenerateSmall builds the corpus deterministically from a seed. Scale 1
// (or any scale outside (0,1]) gives the paper's Table 3 sizes; a smaller
// scale reduces every split in proportion for fast tests and benchmarks.
func GenerateSmall(seed int64, scale float64) *Corpus {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	nTrainDB := maxInt(6, int(float64(TrainDatabases)*scale))
	nDevDB := maxInt(4, int(float64(DevDatabases)*scale))
	nDKDB := maxInt(2, int(float64(DKDatabases)*scale))
	trainDBs, trainSpecs := makeDatabases(rng, 0, trainDomainCount, nTrainDB)
	devDBs, devSpecs := makeDatabases(rng, trainDomainCount, len(domains), nDevDB)
	dkDBs, dkSpecs := makeDatabases(rng, trainDomainCount, len(domains), nDKDB)
	n := func(full int) int { return maxInt(20, int(float64(full)*scale)) }
	// Syn and Realistic reuse the dev databases, so one memo serves every
	// split.
	values := valueMemo{}
	c := &Corpus{
		Train:     makeSplit("spider-train", trainDBs, trainSpecs, rng, values, StyleStandard, n(TrainQueries), 0),
		Dev:       makeSplit("spider-dev", devDBs, devSpecs, rng, values, StyleStandard, n(DevQueries), 0),
		DK:        makeSplit("spider-dk", dkDBs, dkSpecs, rng, values, StyleDK, n(DKQueries), 0.20),
		Syn:       makeSplit("spider-syn", devDBs, devSpecs, rng, values, StyleSyn, n(SynQueries), 0.15),
		Realistic: makeSplit("spider-realistic", devDBs, devSpecs, rng, values, StyleRealistic, n(RealisticQueries), 0.12),
	}
	tagVariant(c.DK, "dk")
	tagVariant(c.Syn, "syn")
	tagVariant(c.Realistic, "realistic")
	return c
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// makeDatabases instantiates count databases by cycling over the domain
// range [lo, hi).
func makeDatabases(rng *rand.Rand, lo, hi, count int) ([]*schema.Database, []domainSpec) {
	var dbs []*schema.Database
	var specs []domainSpec
	for i := 0; i < count; i++ {
		spec := domains[lo+i%(hi-lo)]
		instance := i / (hi - lo)
		dbs = append(dbs, buildDatabase(spec, instance, rng))
		specs = append(specs, spec)
	}
	return dbs, specs
}

func makeSplit(name string, dbs []*schema.Database, specs []domainSpec, rng *rand.Rand, values valueMemo, style Style, count int, noise float64) *Benchmark {
	b := &Benchmark{Name: name, Databases: dbs}
	for i := 0; i < count; i++ {
		di := i % len(dbs)
		ex := sampleExample(dbs[di], specs[di], rng, values, style)
		sel := ex.sel
		e := &Example{
			ID:        i,
			DB:        dbs[di],
			NL:        ex.nl,
			Gold:      sel,
			GoldSQL:   sqlir.String(sel),
			Class:     ex.class,
			LinkNoise: noise,
			Hardness:  Hardness(sel),
		}
		b.Examples = append(b.Examples, e)
	}
	return b
}

func tagVariant(b *Benchmark, v string) {
	for _, e := range b.Examples {
		e.Variant = v
	}
}

// String implements fmt.Stringer for quick corpus inspection.
func (c *Corpus) String() string {
	row := func(b *Benchmark) string {
		s := b.Stat()
		return fmt.Sprintf("%-18s queries=%-5d dbs=%-3d avgNL=%.1f avgSQL=%.1f",
			b.Name, s.Queries, s.Databases, s.AvgNLLen, s.AvgSQLLen)
	}
	return row(c.Train) + "\n" + row(c.Dev) + "\n" + row(c.DK) + "\n" + row(c.Syn) + "\n" + row(c.Realistic)
}
