package spider

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestGoldenCorpus pins the generated corpus byte for byte: for seeds 1
// and 2 at scales 0.1 and 1.0, one SHA-256 per split over every database
// (name, DDL, column types and natural-language names, rows) and every
// example (ID, database, NL, gold SQL, class, hardness, variant, link
// noise), in order. Anything that changes one drawn value, one sampled
// question or the order of rng draws shows up here. Regenerate
// deliberately with:
//
//	go test ./internal/spider -run TestGoldenCorpus -update
func TestGoldenCorpus(t *testing.T) {
	var sb strings.Builder
	for _, seed := range []int64{1, 2} {
		for _, scale := range []float64{0.1, 1.0} {
			c := GenerateSmall(seed, scale)
			for _, b := range []*Benchmark{c.Train, c.Dev, c.DK, c.Syn, c.Realistic} {
				fmt.Fprintf(&sb, "seed=%d scale=%g %s dbs=%d examples=%d sha256=%s\n",
					seed, scale, b.Name, len(b.Databases), len(b.Examples), hashBenchmark(b))
			}
		}
	}
	got := sb.String()

	path := filepath.Join("testdata", "corpus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("corpus drifted (rerun with -update only if the change is intentional):\ngolden:\n%sgot:\n%s", want, got)
	}
}

func hashBenchmark(b *Benchmark) string {
	h := sha256.New()
	for _, db := range b.Databases {
		hashDatabase(h, db)
	}
	for _, e := range b.Examples {
		fmt.Fprintf(h, "%d\t%s\t%q\t%q\t%s\t%s\t%s\t%v\n",
			e.ID, e.DB.Name, e.NL, e.GoldSQL, e.Class, e.Hardness, e.Variant, e.LinkNoise)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashDatabase(h hash.Hash, db *schema.Database) {
	fmt.Fprintf(h, "db %s\n%s", db.Name, db.DDL())
	for _, t := range db.Tables {
		fmt.Fprintf(h, "table %s %q pk=%s\n", t.Name, t.NLName, t.PrimaryKey)
		for _, c := range t.Columns {
			fmt.Fprintf(h, "col %s %d %q\n", c.Name, c.Type, c.NLName)
		}
		for _, r := range t.Rows {
			for _, v := range r {
				fmt.Fprintf(h, "%d:%q:%v\t", v.Kind, v.Str, v.Num)
			}
			h.Write([]byte{'\n'})
		}
	}
}
