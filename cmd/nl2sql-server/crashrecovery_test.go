package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestCrashRecovery is the durability end-to-end check: it builds the real
// binary, boots it with -data-dir, registers a tenant, waits for its models
// to build, records a translation, then SIGKILLs the process mid-traffic —
// no drain, no WAL close, exactly what a power cut leaves behind. A second
// boot on the same data directory must:
//
//   - recover the tenant from the WAL without re-training (builds_done == 0),
//   - defer the snapshot load until the first request (store loads == 0
//     before, == 1 after),
//   - serve a byte-identical translation from the recovered models.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary twice")
	}

	bin := filepath.Join(t.TempDir(), "nl2sql-server")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := t.TempDir()

	// Kill -9 on boot #1 (idempotent; also the failure-path cleanup for #2).
	var procs []*exec.Cmd
	var procMu sync.Mutex
	t.Cleanup(func() {
		procMu.Lock()
		defer procMu.Unlock()
		for _, c := range procs {
			if c.Process != nil {
				c.Process.Kill()
				c.Wait()
			}
		}
	})
	start := func() (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin,
			"-addr", "127.0.0.1:0",
			"-data-dir", dataDir,
			"-scale", "0.02",
			"-max-tenants", "8",
		)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procMu.Lock()
		procs = append(procs, cmd)
		procMu.Unlock()
		// The server logs msg=listening addr=<addr> once the listener is
		// bound; scan for it, then keep draining so the child never blocks
		// on a full stderr pipe.
		addrc := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				line := sc.Text()
				t.Log(line)
				if !strings.Contains(line, "msg=listening") {
					continue
				}
				if i := strings.Index(line, "addr="); i >= 0 {
					select {
					case addrc <- strings.TrimSpace(line[i+len("addr="):]):
					default:
					}
				}
			}
		}()
		select {
		case addr := <-addrc:
			return cmd, "http://" + addr
		case <-time.After(60 * time.Second):
			t.Fatal("server did not report its listen address")
			return nil, ""
		}
	}

	// ---- boot #1: register, build, translate, kill -9 ----
	cmd1, base1 := start()
	register := `{
		"name": "crash",
		"tables": [{
			"name": "item",
			"primary_key": "id",
			"columns": [
				{"name": "id", "type": "number"},
				{"name": "label"},
				{"name": "price", "type": "number"}
			],
			"rows": [[1, "anvil", 40], [2, "rope", 5], [3, "dynamite", 75]]
		}],
		"demos": [
			{"question": "How many items are there?", "sql": "SELECT COUNT(*) FROM item"},
			{"question": "Which items cost more than 10?", "sql": "SELECT label FROM item WHERE price > 10"},
			{"question": "What is the most expensive item?", "sql": "SELECT label FROM item ORDER BY price DESC LIMIT 1"}
		]
	}`
	resp, err := http.Post(base1+"/v1/databases", "application/json", strings.NewReader(register))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	waitTenantReady(t, base1, "crash")

	question := "Which items cost more than 50?"
	first := tenantTranslate(t, base1, "crash", question)
	if first.SQL == "" {
		t.Fatalf("boot #1 translation returned no SQL: %+v", first)
	}

	// Mid-traffic kill: translations in flight when SIGKILL lands, so the
	// recovery below proves the WAL survives an arbitrary cut, not a lull.
	stop := make(chan struct{})
	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		body := fmt.Sprintf(`{"database":"crash","question":%q}`, question)
		for {
			select {
			case <-stop:
				return
			default:
			}
			r, err := http.Post(base1+"/v1/translate", "application/json", strings.NewReader(body))
			if err != nil {
				return // the process just died under us — that is the point
			}
			r.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond) // let a few requests get airborne
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()
	close(stop)
	traffic.Wait()

	// ---- boot #2: recover from the same data dir ----
	_, base2 := start()

	// Before any tenant request: the tenant was recovered from the WAL as a
	// lazy stub — no model rebuild submitted, no snapshot file read yet.
	// (/v1/metrics reads catalog state without Lookup, so it cannot itself
	// trigger the load.)
	pre := scrapeMetrics(t, base2)
	if got := pre["catalog_builds_done_total"]; got != 0 {
		t.Errorf("catalog_builds_done_total = %v after restart, want 0 (tenant re-trained)", got)
	}
	if _, ok := pre["store_loads_total"]; !ok {
		t.Fatal("no store series after restart with -data-dir")
	}
	if got := pre["store_recovered_tenants"]; got != 1 {
		t.Errorf("store_recovered_tenants = %v, want 1", got)
	}
	if got := pre["store_loads_total"]; got != 0 {
		t.Errorf("store_loads_total = %v before first tenant request, want 0 (load must be lazy)", got)
	}
	if got, ok := pre["store_recovery_ms"]; !ok || got < 0 {
		t.Errorf("store_recovery_ms = %v (present %v), want >= 0", got, ok)
	}

	// First tenant request after the crash: served from the persisted
	// snapshot, byte-identical to the pre-crash translation.
	second := tenantTranslate(t, base2, "crash", question)
	if second.SQL != first.SQL {
		t.Errorf("translation diverged across crash:\n  before: %q\n  after:  %q", first.SQL, second.SQL)
	}
	if second.State != "ready" {
		t.Errorf("post-recovery snapshot state %q, want ready (models should come from the store)", second.State)
	}

	post := scrapeMetrics(t, base2)
	if got := post["catalog_builds_done_total"]; got != 0 {
		t.Errorf("catalog_builds_done_total = %v after recovered translation, want 0", got)
	}
	if got := post["store_loads_total"]; got != 1 {
		t.Errorf("store_loads_total = %v after first tenant request, want 1", got)
	}
	if post["store_bytes_loaded_total"] == 0 {
		t.Error("store_bytes_loaded_total = 0 after a lazy snapshot load")
	}
}

// waitTenantReady polls the tenant status endpoint until the async model
// build completes.
func waitTenantReady(t *testing.T, base, name string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/databases/" + name)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "ready" {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("tenant %q never became ready", name)
}

type translateResult struct {
	SQL   string `json:"sql"`
	State string `json:"state"`
}

func tenantTranslate(t *testing.T, base, db, question string) translateResult {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"database": db, "question": question})
	resp, err := http.Post(base+"/v1/translate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("translate: %d", resp.StatusCode)
	}
	var out translateResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// scrapeMetrics fetches base's /v1/metrics and parses the exposition into
// samples keyed by name{labels}.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseExposition(body)
	if err != nil {
		t.Fatalf("GET %s/v1/metrics: %v", base, err)
	}
	return samples
}
