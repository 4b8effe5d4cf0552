package store

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/benchfix"
	"repro/internal/classifier"
	"repro/internal/predictor"
	"repro/internal/spider"
)

// Shared trained models: training once keeps the suite fast; the models are
// read-only after construction.
var (
	trainOnce sync.Once
	trainClf  *classifier.Model
	trainPred *predictor.Model
	trainEx   []*spider.Example
)

func trainedModels(t *testing.T) (*classifier.Model, *predictor.Model, []*spider.Example) {
	t.Helper()
	trainOnce.Do(func() {
		c := spider.GenerateSmall(7, 0.03)
		trainEx = c.Train.Examples
		trainClf = classifier.Train(trainEx, classifier.UsedByExample(trainEx))
		trainPred = predictor.Train(trainEx)
	})
	return trainClf, trainPred, trainEx
}

func openTestStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testRecord(op Op, key string, version int, fp uint64) Record {
	r := Record{Op: op, Key: key, Name: key, Version: version, Unix: int64(version) * 1e9}
	r.SetFingerprint(fp)
	return r
}

func TestSnapshotRoundTripPreservesModels(t *testing.T) {
	clf, pred, ex := trainedModels(t)
	db := benchfix.TenantDB("shop")
	snap := &TenantSnapshot{
		Name:        "shop",
		Version:     3,
		Fingerprint: db.Fingerprint(),
		Registered:  time.Unix(100, 0).UTC(),
		Built:       time.Unix(200, 0).UTC(),
		DB:          db,
		Demos:       []Demo{{NL: "How many items?", SQL: "SELECT COUNT(*) FROM items"}},
	}
	var err error
	if snap.Classifier, err = clf.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if snap.Predictor, err = pred.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if !snap.HasModels() {
		t.Fatal("expected HasModels after attaching blobs")
	}

	s := openTestStore(t, t.TempDir(), Options{})
	size, err := s.SaveSnapshot("shop", snap)
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("size = %d", size)
	}
	if got, ok := s.SnapshotSize("shop"); !ok || got != size {
		t.Fatalf("SnapshotSize = %d, %v; want %d, true", got, ok, size)
	}

	got, loadedSize, err := s.LoadSnapshot("shop", 3, db.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if loadedSize != size {
		t.Fatalf("loaded size %d != saved size %d", loadedSize, size)
	}
	if got.Name != "shop" || got.Version != 3 || got.Fingerprint != db.Fingerprint() {
		t.Fatalf("identity mismatch: %+v", got)
	}
	if !got.Registered.Equal(snap.Registered) || !got.Built.Equal(snap.Built) {
		t.Fatalf("timestamps mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Demos, snap.Demos) {
		t.Fatalf("demos mismatch: %+v", got.Demos)
	}
	if !reflect.DeepEqual(got.DB.TableNames(), db.TableNames()) {
		t.Fatalf("schema tables mismatch: %v", got.DB.TableNames())
	}

	// The restored models must prune and predict exactly as the originals
	// do — the crash-recovery guarantee of byte-identical translations
	// rests on this. (The classifier's reference test holds a round-tripped
	// model's scores to the bit.)
	var clf2 classifier.Model
	if err := clf2.UnmarshalBinary(got.Classifier); err != nil {
		t.Fatal(err)
	}
	var pred2 predictor.Model
	if err := pred2.UnmarshalBinary(got.Predictor); err != nil {
		t.Fatal(err)
	}
	for _, e := range ex[:min(50, len(ex))] {
		cfg := classifier.PruneConfig{TauP: 0.5, TauN: 5, UseSteiner: true, TopK1: 4, TopK2: 5}
		a, b := classifier.Prune(clf, e.NL, e.DB, cfg), classifier.Prune(&clf2, e.NL, e.DB, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("classifier diverged on %q: %v vs %v", e.NL, a.DB.DDL(), b.DB.DDL())
		}
		pa, pb := pred.Predict(e.NL, 4), pred2.Predict(e.NL, 4)
		if len(pa) != len(pb) {
			t.Fatalf("predictor count diverged on %q", e.NL)
		}
		for i := range pa {
			if pa[i].Skeleton() != pb[i].Skeleton() || math.Float64bits(pa[i].Prob) != math.Float64bits(pb[i].Prob) {
				t.Fatalf("predictor diverged on %q at %d: %+v vs %+v", e.NL, i, pa[i], pb[i])
			}
		}
	}
}

func TestWALReplayFoldsLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	appendAll := func(recs ...Record) {
		t.Helper()
		for _, r := range recs {
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(
		testRecord(OpRegister, "a", 1, 11),
		testRecord(OpRegister, "b", 1, 22),
		testRecord(OpBuilt, "a", 1, 11),
		testRecord(OpReregister, "b", 2, 33), // new version: built flag must not stick
		testRecord(OpBuilt, "b", 1, 22),      // stale built for the replaced version
		testRecord(OpRegister, "c", 1, 44),
		testRecord(OpDeregister, "c", 0, 0),
		testRecord(OpRegister, "d", 1, 55),
		testRecord(OpEvict, "d", 0, 0),
	)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, Options{})
	live := s2.Recovered()
	if len(live) != 2 {
		t.Fatalf("recovered %d tenants, want 2: %+v", len(live), live)
	}
	a, b := live[0], live[1]
	if a.Key != "a" || !a.Built || a.Fingerprint != 11 || a.Version != 1 {
		t.Fatalf("tenant a: %+v", a)
	}
	if b.Key != "b" || b.Built || b.Fingerprint != 33 || b.Version != 2 {
		t.Fatalf("tenant b: %+v", b)
	}
	if st := s2.Stats(); st.Recovered != 2 || st.WALReplayed != 9 || st.RecoveryMs < 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestWALTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if err := s.Append(testRecord(OpRegister, "a", 1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(OpRegister, "b", 1, 22)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial line with no trailing newline.
	wal := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef	{"op":"regis`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.ReadFile(wal)

	s2 := openTestStore(t, dir, Options{})
	if live := s2.Recovered(); len(live) != 2 {
		t.Fatalf("recovered %d tenants, want 2", len(live))
	}
	after, _ := os.ReadFile(wal)
	if len(after) >= len(before) {
		t.Fatalf("torn tail not truncated: %d >= %d bytes", len(after), len(before))
	}
	// The truncated log must append cleanly and survive another cycle.
	if err := s2.Append(testRecord(OpRegister, "c", 1, 33)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTestStore(t, dir, Options{})
	if live := s3.Recovered(); len(live) != 3 {
		t.Fatalf("after re-append recovered %d tenants, want 3", len(live))
	}
}

func TestWALStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	for _, r := range []Record{
		testRecord(OpRegister, "a", 1, 11),
		testRecord(OpRegister, "b", 1, 22),
		testRecord(OpRegister, "c", 1, 33),
	} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Flip a byte inside the second record's JSON body.
	wal := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(wal)
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = strings.Replace(lines[1], `"b"`, `"x"`, 1)
	if err := os.WriteFile(wal, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, Options{})
	live := s2.Recovered()
	if len(live) != 1 || live[0].Key != "a" {
		t.Fatalf("recovered %+v, want only tenant a (prefix before corruption)", live)
	}
}

func TestLoadSnapshotDetectsCorruption(t *testing.T) {
	db := benchfix.TenantDB("shop")
	s := openTestStore(t, t.TempDir(), Options{})
	snap := &TenantSnapshot{Name: "shop", Version: 1, Fingerprint: db.Fingerprint(), DB: db}
	if _, err := s.SaveSnapshot("shop", snap); err != nil {
		t.Fatal(err)
	}

	if _, _, err := s.LoadSnapshot("missing", 1, 99); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("missing key: err = %v", err)
	}

	path := s.snapPath("shop", 1, db.Fingerprint())
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadSnapshot("shop", 1, db.Fingerprint()); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit rot: err = %v", err)
	}
	if st := s.Stats(); st.LoadFailures != 2 {
		t.Fatalf("LoadFailures = %d, want 2", st.LoadFailures)
	}
}

func TestSaveReplacesPriorVersionAndDeleteRemoves(t *testing.T) {
	db := benchfix.TenantDB("shop")
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if _, err := s.SaveSnapshot("shop", &TenantSnapshot{Name: "shop", Version: 1, Fingerprint: db.Fingerprint(), DB: db}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveSnapshot("shop", &TenantSnapshot{Name: "shop", Version: 2, Fingerprint: db.Fingerprint(), DB: db}); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "snapshots"))
	if len(entries) != 1 {
		t.Fatalf("expected the v1 file replaced, have %d files", len(entries))
	}
	if _, _, err := s.LoadSnapshot("shop", 2, db.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	s.DeleteTenant("shop")
	entries, _ = os.ReadDir(filepath.Join(dir, "snapshots"))
	if len(entries) != 0 {
		t.Fatalf("expected no files after DeleteTenant, have %d", len(entries))
	}
	if st := s.Stats(); st.Deletes != 1 || st.Snapshots != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

func TestOpenCollectsOrphanSnapshots(t *testing.T) {
	db := benchfix.TenantDB("shop")
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	if err := s.Append(testRecord(OpRegister, "live", 1, db.Fingerprint())); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SaveSnapshot("live", &TenantSnapshot{Name: "live", Version: 1, Fingerprint: db.Fingerprint(), DB: db}); err != nil {
		t.Fatal(err)
	}
	// An orphan (no WAL record keeps it live) and a leftover temp file.
	if _, err := s.SaveSnapshot("ghost", &TenantSnapshot{Name: "ghost", Version: 1, Fingerprint: db.Fingerprint(), DB: db}); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "snapshots", "half-written.snap.tmp")
	if err := os.WriteFile(tmp, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTestStore(t, dir, Options{})
	entries, _ := os.ReadDir(filepath.Join(dir, "snapshots"))
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(entries) != 1 || !strings.HasPrefix(names[0], "live-v1-") {
		t.Fatalf("orphan GC left %v", names)
	}
	if _, _, err := s2.LoadSnapshot("live", 1, db.Fingerprint()); err != nil {
		t.Fatal(err)
	}
}

func TestCompactionShrinksDeadHistory(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, Options{})
	// Lots of dead churn plus two survivors, one built.
	for i := 0; i < 200; i++ {
		if err := s.Append(testRecord(OpRegister, "churn", i+1, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(testRecord(OpDeregister, "churn", 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(OpRegister, "a", 1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(OpBuilt, "a", 1, 11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(testRecord(OpRegister, "b", 4, 22)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	bigLen := fileLen(t, filepath.Join(dir, "wal.log"))

	s2 := openTestStore(t, dir, Options{})
	if st := s2.Stats(); st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if smallLen := fileLen(t, filepath.Join(dir, "wal.log")); smallLen >= bigLen/10 {
		t.Fatalf("compaction left %d bytes (was %d)", smallLen, bigLen)
	}
	live := s2.Recovered()
	if len(live) != 2 || live[0].Key != "a" || !live[0].Built || live[1].Key != "b" || live[1].Version != 4 {
		t.Fatalf("post-compaction live set: %+v", live)
	}
	// Appends after compaction land on the rewritten file.
	if err := s2.Append(testRecord(OpRegister, "c", 1, 33)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTestStore(t, dir, Options{})
	if live := s3.Recovered(); len(live) != 3 {
		t.Fatalf("after compaction + append recovered %d, want 3", len(live))
	}
}

func TestAppendFsyncsEveryRecord(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Append(testRecord(OpRegister, "a", i+1, 11)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.WALAppends != n || st.WALSyncs != st.WALAppends || st.WALAppendFailures != 0 {
		t.Fatalf("after %d appends: appends=%d syncs=%d failures=%d, want every append fsynced",
			n, st.WALAppends, st.WALSyncs, st.WALAppendFailures)
	}
}

func TestAppendFailureCounted(t *testing.T) {
	s := openTestStore(t, t.TempDir(), Options{})
	if err := s.Append(testRecord(OpRegister, "a", 1, 11)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().WALAppends
	// Pull the WAL file out from under the open store: the next write fails.
	s.wal.Close()
	if err := s.Append(testRecord(OpRegister, "b", 1, 22)); err == nil {
		t.Fatal("append to a closed WAL file succeeded")
	}
	st := s.Stats()
	if st.WALAppendFailures != 1 {
		t.Errorf("WALAppendFailures = %d, want 1", st.WALAppendFailures)
	}
	if st.WALAppends != before {
		t.Errorf("WALAppends = %d after a failed append, want %d", st.WALAppends, before)
	}
}

func fileLen(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return len(data)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
