package main

import (
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/spider"
)

// TestBadBootstrapSeedFailsStartup holds the listen address itself: had
// newApp got as far as binding, it would fail with "address already in
// use". Failing on the seed list instead shows the flag is checked before
// the listener binds (and before any corpus is generated).
func TestBadBootstrapSeedFailsStartup(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_, err = newApp(appConfig{Addr: ln.Addr().String(), Scale: 0.02, Seed: 1, MaxTenants: 4, BootstrapSeeds: "1,two"})
	if err == nil || !strings.Contains(err.Error(), `bad -bootstrap-seeds entry "two"`) {
		t.Fatalf("newApp error = %v, want the malformed -bootstrap-seeds entry", err)
	}
}

func TestParseBootstrapSeeds(t *testing.T) {
	for _, c := range []struct {
		list string
		main int64
		want []int64
	}{
		{"1,2", 1, []int64{1, 2}},
		{"1,2,2", 1, []int64{1, 2}},
		{" 3, 1 ,,3", 1, []int64{1, 3}},
		{"1,2", 5, []int64{5, 1, 2}},
		{"", 4, []int64{4}},
	} {
		got, err := parseBootstrapSeeds(c.list, c.main)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseBootstrapSeeds(%q, %d) = %v, %v; want %v", c.list, c.main, got, err, c.want)
		}
	}
	if _, err := parseBootstrapSeeds("1,2x", 1); err == nil {
		t.Error("malformed entry parsed")
	}
}

// TestDuplicateBootstrapSeedTrainsOnce: a seed listed twice contributes its
// training split once.
func TestDuplicateBootstrapSeedTrainsOnce(t *testing.T) {
	const scale = 0.02
	main := spider.GenerateSmall(1, scale)
	seeds, err := parseBootstrapSeeds("1,2,2", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := bootstrapExamples(main, seeds, scale)
	want := len(main.Train.Examples) + len(spider.GenerateSmall(2, scale).Train.Examples)
	if len(got) != want {
		t.Fatalf("bootstrap over seeds 1,2,2: %d examples, want %d (seed 2 once)", len(got), want)
	}
}
