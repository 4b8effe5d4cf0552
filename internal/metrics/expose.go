package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type servers should
// send with WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Sink receives samples from scrape-time collectors. Samples are merged with
// the registry's static instruments at exposition; a collector must not reuse
// a name already claimed by a static instrument of a different kind.
type Sink struct {
	fams map[string]*sampleFamily
	errs []error
}

type sampleFamily struct {
	help    string
	kind    kind
	samples []sample
}

type sample struct {
	labelStr string
	value    float64
}

func (s *Sink) add(name, help string, k kind, v float64, labels []Label) {
	if err := checkMetricName(name); err != nil {
		s.errs = append(s.errs, err)
		return
	}
	key := labelKey(labels)
	f := s.fams[name]
	if f == nil {
		f = &sampleFamily{help: help, kind: k}
		s.fams[name] = f
	}
	f.samples = append(f.samples, sample{labelStr: key, value: v})
}

// Counter contributes one counter sample.
func (s *Sink) Counter(name, help string, value float64, labels ...Label) {
	s.add(name, help, counterKind, value, labels)
}

// Gauge contributes one gauge sample.
func (s *Sink) Gauge(name, help string, value float64, labels ...Label) {
	s.add(name, help, gaugeKind, value, labels)
}

// WritePrometheus renders every static instrument plus every collector's
// samples in Prometheus text exposition format, families and series in
// deterministic (sorted) order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	sink := &Sink{fams: map[string]*sampleFamily{}}
	r.mu.RLock()
	collectors := make([]func(*Sink), len(r.collectors))
	copy(collectors, r.collectors)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	for _, fn := range collectors {
		fn(sink)
	}
	if len(sink.errs) > 0 {
		return sink.errs[0]
	}

	// Merge collector families into the output set; static instruments win
	// name clashes of differing kind (collectors should use distinct names).
	names := make(map[string]bool, len(fams)+len(sink.fams))
	for _, f := range fams {
		names[f.name] = true
	}
	for name := range sink.fams {
		names[name] = true
	}
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)

	static := make(map[string]*family, len(fams))
	for _, f := range fams {
		static[f.name] = f
	}

	bw := bufio.NewWriter(w)
	for _, name := range ordered {
		f, collected := static[name], sink.fams[name]
		var help string
		var k kind
		switch {
		case f != nil:
			help, k = f.help, f.kind
		default:
			help, k = collected.help, collected.kind
		}
		writeHeader(bw, name, help, k)
		if f != nil {
			writeFamily(bw, f)
		}
		if collected != nil && (f == nil || f.kind == collected.kind) {
			sort.Slice(collected.samples, func(i, j int) bool {
				return collected.samples[i].labelStr < collected.samples[j].labelStr
			})
			for _, sm := range collected.samples {
				writeSample(bw, name, sm.labelStr, "", sm.value)
			}
		}
	}
	return bw.Flush()
}

// ServeHTTP serves the registry in Prometheus text exposition format — the
// GET /v1/metrics handler of every serving mode. The exposition is rendered
// to memory first so a failure (a collector emitting an invalid name) can
// still answer 500: streaming would have committed the 200 status line
// before the error surfaced.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.Write(buf.Bytes())
}

func writeHeader(w *bufio.Writer, name, help string, k kind) {
	if help != "" {
		w.WriteString("# HELP ")
		w.WriteString(name)
		w.WriteByte(' ')
		w.WriteString(strings.NewReplacer("\\", `\\`, "\n", `\n`).Replace(help))
		w.WriteByte('\n')
	}
	w.WriteString("# TYPE ")
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(k.String())
	w.WriteByte('\n')
}

func writeFamily(w *bufio.Writer, f *family) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	instruments := make([]any, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		instruments[i] = f.series[k]
	}
	f.mu.RUnlock()

	for i, key := range keys {
		switch inst := instruments[i].(type) {
		case *Counter:
			writeSample(w, f.name, key, "", float64(inst.Value()))
		case *Gauge:
			writeSample(w, f.name, key, "", inst.Value())
		case *Histogram:
			snap := inst.Snapshot()
			cum := int64(0)
			for bi, c := range snap.Counts {
				cum += c
				le := "+Inf"
				if bi < len(snap.Bounds) {
					le = formatFloat(snap.Bounds[bi])
				}
				writeSample(w, f.name+"_bucket", key, `le="`+le+`"`, float64(cum))
			}
			writeSample(w, f.name+"_sum", key, "", snap.Sum)
			writeSample(w, f.name+"_count", key, "", float64(snap.Count))
		}
	}
}

// writeSample emits one exposition line; extra is an additional rendered
// label pair (the histogram "le") appended after the instrument's own labels.
func writeSample(w *bufio.Writer, name, labelStr, extra string, v float64) {
	w.WriteString(name)
	if labelStr != "" || extra != "" {
		w.WriteByte('{')
		w.WriteString(labelStr)
		if labelStr != "" && extra != "" {
			w.WriteByte(',')
		}
		w.WriteString(extra)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- exposition parsing (tests and the loadgen self-check) ----

var helpRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)

// ParseExposition validates Prometheus text exposition data line by line and
// returns the samples keyed by "name{labels}" exactly as serialized (no label
// reordering). It errors on any malformed comment, sample, label pair or
// value — strict enough that tests and the load generator's self-check catch
// a broken exporter, without reimplementing a full openmetrics parser.
func ParseExposition(data []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for ln, line := range strings.Split(string(bytes.TrimRight(data, "\n")), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !helpRe.MatchString(line) {
				return nil, fmt.Errorf("metrics: line %d: malformed comment %q", ln+1, line)
			}
			continue
		}
		key, valueStr, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: %v", ln+1, err)
		}
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %d: bad value %q: %v", ln+1, valueStr, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("metrics: line %d: duplicate series %q", ln+1, key)
		}
		out[key] = v
	}
	return out, nil
}

// parseSampleLine scans one `name[{labels}] value [timestamp]` line. A
// hand-rolled scanner rather than a regexp because label VALUES may contain
// any character — '}', ',', spaces — with only '"' and '\' escaped.
func parseSampleLine(line string) (key, value string, err error) {
	i := scanName(line, 0, true)
	if i == 0 {
		return "", "", fmt.Errorf("malformed sample %q: no metric name", line)
	}
	j := i
	if j < len(line) && line[j] == '{' {
		j++
		for j < len(line) && line[j] != '}' {
			// label name
			ns := scanName(line[j:], 0, false)
			if ns == 0 {
				return "", "", fmt.Errorf("malformed sample %q: bad label name at %d", line, j)
			}
			j += ns
			if j+1 >= len(line) || line[j] != '=' || line[j+1] != '"' {
				return "", "", fmt.Errorf("malformed sample %q: label missing =\" at %d", line, j)
			}
			j += 2
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' {
					j++ // skip the escaped character
				}
				j++
			}
			if j >= len(line) {
				return "", "", fmt.Errorf("malformed sample %q: unterminated label value", line)
			}
			j++ // closing quote
			if j < len(line) && line[j] == ',' {
				j++
			} else if j >= len(line) || line[j] != '}' {
				return "", "", fmt.Errorf("malformed sample %q: expected , or } at %d", line, j)
			}
		}
		if j >= len(line) {
			return "", "", fmt.Errorf("malformed sample %q: unterminated label block", line)
		}
		j++ // closing brace
	}
	key = line[:j]
	rest := strings.TrimLeft(line[j:], " \t")
	if rest == line[j:] && rest != "" {
		return "", "", fmt.Errorf("malformed sample %q: missing space before value", line)
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", "", fmt.Errorf("malformed sample %q: want value [timestamp]", line)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", "", fmt.Errorf("malformed sample %q: bad timestamp %q", line, fields[1])
		}
	}
	return key, fields[0], nil
}

// scanName returns the length of the metric/label name prefix of s[from:];
// colons are legal in metric names only.
func scanName(s string, from int, allowColon bool) int {
	n := 0
	for i := from; i < len(s); i++ {
		r := s[i]
		ok := r == '_' || allowColon && r == ':' ||
			r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' ||
			(n > 0 && r >= '0' && r <= '9')
		if !ok {
			break
		}
		n++
	}
	return n
}

// SumSamples adds up every parsed sample whose series name (the part before
// any '{') equals name — e.g. the total of a counter across label values.
func SumSamples(samples map[string]float64, name string) float64 {
	total := 0.0
	for key, v := range samples {
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if base == name {
			total += v
		}
	}
	return total
}
