package main

// The tenant-mixed workload registers its tenants with loadgen's synthetic
// shop fixture (loadgen.RegisterTenant) and re-registers them with the
// same registration body, which loadgen does not export, so it is repeated
// here. The execute checks below pin the fixture's rows: if the two copies
// drifted apart, reads would stop matching before or after the first
// re-register and the run would fail.

// fixtureQuestions are the fixture's demo questions; each resolves to its
// demo exactly, so tenant translations are graded.
var fixtureQuestions = []string{
	"How many items are there?",
	"What is the average price of all items?",
	"List the names of all items.",
}

// fixtureQueries and fixtureRows are the execute half of the read mix and
// the rows the fixture's four items must produce.
var (
	fixtureQueries = []string{
		"SELECT COUNT(*) FROM items",
		"SELECT AVG(price) FROM items",
		"SELECT name FROM items ORDER BY price",
	}
	fixtureRows = [][][]string{
		{{"4"}},
		{{"13.0625"}},
		{{"rope"}, {"anvil"}, {"lantern"}, {"compass"}},
	}
)

func fixtureRegistration(name string) map[string]any {
	return map[string]any{
		"name": name,
		"tables": []map[string]any{{
			"name":        "items",
			"primary_key": "id",
			"columns": []map[string]any{
				{"name": "id", "type": "number"},
				{"name": "name", "type": "text"},
				{"name": "price", "type": "number"},
			},
			"rows": [][]any{
				{1.0, "anvil", 9.5},
				{2.0, "rope", 3.25},
				{3.0, "lantern", 12.0},
				{4.0, "compass", 27.5},
			},
		}},
		"demos": []map[string]any{
			{"question": fixtureQuestions[0], "sql": "SELECT COUNT(*) FROM items"},
			{"question": fixtureQuestions[1], "sql": "SELECT AVG(price) FROM items"},
			{"question": fixtureQuestions[2], "sql": "SELECT name FROM items"},
		},
	}
}

func rowsEqual(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}
