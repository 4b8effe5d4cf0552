package spider

import (
	"fmt"
	"math/rand"

	"repro/internal/schema"
)

// buildDatabase instantiates one database from a domain template. instance
// differentiates multiple databases drawn from the same domain (Spider's
// training set contains several databases per broad domain); it suffixes the
// database name only, keeping table/column names stable so NL realization
// stays natural.
func buildDatabase(spec domainSpec, instance int, rng *rand.Rand) *schema.Database {
	name := spec.name
	if instance > 0 {
		name = fmt.Sprintf("%s_%d", spec.name, instance)
	}
	db := &schema.Database{Name: name}
	for ei, ent := range spec.entities {
		t := &schema.Table{
			Name:       ent.name,
			NLName:     ent.nl,
			PrimaryKey: "id",
		}
		t.Columns = append(t.Columns, schema.Column{Name: "id", Type: schema.TypeNumber, NLName: "id"})
		for _, p := range ent.parents {
			parent := spec.entities[p]
			fkCol := parent.name + "_id"
			t.Columns = append(t.Columns, schema.Column{Name: fkCol, Type: schema.TypeNumber, NLName: parent.nl + " id"})
			db.ForeignKeys = append(db.ForeignKeys, schema.ForeignKey{
				FromTable: ent.name, FromColumn: fkCol, ToTable: parent.name, ToColumn: "id",
			})
		}
		for _, a := range ent.attrs {
			typ := schema.TypeText
			switch a.pool {
			case poolYear, poolSmall, poolBig, poolMoney, poolRate:
				typ = schema.TypeNumber
			}
			t.Columns = append(t.Columns, schema.Column{Name: a.name, Type: typ, NLName: a.nl})
		}
		db.Tables = append(db.Tables, t)
		_ = ei
	}
	populate(db, spec, rng)
	return db
}

// populate fills tables with rows. Row counts and value distributions are
// tuned so that aggregates, duplicates (DISTINCT matters) and empty
// predicate results all occur.
func populate(db *schema.Database, spec domainSpec, rng *rand.Rand) {
	rowCounts := make(map[string]int)
	for ti, ent := range spec.entities {
		t := db.Tables[ti]
		n := 12 + rng.Intn(24)
		rowCounts[ent.name] = n
		for i := 0; i < n; i++ {
			row := make([]schema.Value, len(t.Columns))
			ci := 0
			row[ci] = schema.N(float64(i + 1))
			ci++
			for _, p := range ent.parents {
				parentRows := rowCounts[spec.entities[p].name]
				// ~8% NULL FKs so IS NULL predicates and join drops occur.
				if rng.Float64() < 0.08 {
					row[ci] = schema.Null()
				} else {
					row[ci] = schema.N(float64(1 + rng.Intn(parentRows)))
				}
				ci++
			}
			for _, a := range ent.attrs {
				row[ci] = genValue(a.pool, spec, rng)
				ci++
			}
			t.Rows = append(t.Rows, row)
		}
	}
}

func genValue(pool attrPool, spec domainSpec, rng *rand.Rand) schema.Value {
	switch pool {
	case poolPerson:
		return schema.S(personNames[rng.Intn(len(personNames))])
	case poolCity:
		return schema.S(cityNames[rng.Intn(len(cityNames))])
	case poolCountry:
		return schema.S(countryNames[rng.Intn(len(countryNames))])
	case poolWord:
		w := spec.words[rng.Intn(len(spec.words))]
		// Half the time decorate the word so text columns have variety while
		// keeping frequent duplicates.
		if rng.Float64() < 0.5 {
			return schema.S(w)
		}
		return schema.S(w + " " + cityNames[rng.Intn(len(cityNames))])
	case poolYear:
		return schema.N(float64(1950 + rng.Intn(74)))
	case poolSmall:
		return schema.N(float64(1 + rng.Intn(100)))
	case poolBig:
		return schema.N(float64(100 + rng.Intn(9900)))
	case poolMoney:
		return schema.N(float64(rng.Intn(499000)+1000) / 100.0)
	case poolRate:
		return schema.N(float64(1 + rng.Intn(10)))
	}
	return schema.Null()
}
