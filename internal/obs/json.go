package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanJSON is the wire form of a span tree: the `?trace=1` response field
// and the slow-log dump. Durations are nanoseconds (integer, lossless);
// maps marshal with sorted keys, and children are pre-sorted by ordering
// key, so encoding the same tree twice yields identical bytes.
type SpanJSON struct {
	Name      string           `json:"name"`
	Key       string           `json:"key,omitempty"`
	StartNS   int64            `json:"start_ns"`
	DurNS     int64            `json:"dur_ns"`
	PagesRead uint64           `json:"pages_read,omitempty"`
	CacheHits uint64           `json:"cache_hits,omitempty"`
	Stages    map[string]int64 `json:"stages_ns,omitempty"`
	Counts    map[string]int64 `json:"stage_counts,omitempty"`
	Attrs     map[string]any   `json:"attrs,omitempty"`
	Children  []*SpanJSON      `json:"children,omitempty"`
}

// Tree converts the trace into its wire form. Call Finish first so every
// span has an end time and an I/O delta.
func (t *Trace) Tree() *SpanJSON {
	if t == nil {
		return nil
	}
	return t.root.tree()
}

func (s *Span) tree() *SpanJSON {
	if s == nil {
		return nil
	}
	j := &SpanJSON{
		Name:      s.name,
		Key:       s.key,
		StartNS:   s.startNS,
		DurNS:     int64(s.Duration()),
		PagesRead: s.PagesRead(),
		CacheHits: s.CacheHits(),
	}
	for st := Stage(0); st < NumStages; st++ {
		if s.stages[st] == 0 && s.counts[st] == 0 {
			continue
		}
		if j.Stages == nil {
			j.Stages = map[string]int64{}
			j.Counts = map[string]int64{}
		}
		j.Stages[st.String()] = s.stages[st]
		j.Counts[st.String()] = s.counts[st]
	}
	if len(s.attrs) > 0 {
		j.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if a.isStr {
				j.Attrs[a.key] = a.text()
			} else {
				j.Attrs[a.key] = a.num
			}
		}
	}
	for _, c := range s.Children() {
		j.Children = append(j.Children, c.tree())
	}
	return j
}

// Render writes the trace as an indented human-readable tree (the
// prixquery -trace output). Call Finish first.
func Render(w io.Writer, t *Trace) {
	if t == nil {
		return
	}
	renderSpan(w, t.Tree(), 0)
}

func renderSpan(w io.Writer, j *SpanJSON, depth int) {
	if j == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	head := j.Name
	if j.Key != "" {
		head += "(" + j.Key + ")"
	}
	fmt.Fprintf(w, "%s%-*s %10s", indent, 24-len(indent), head, fmtNS(j.DurNS))
	if j.PagesRead > 0 || j.CacheHits > 0 {
		fmt.Fprintf(w, "  io: %d pages, %d hits", j.PagesRead, j.CacheHits)
	}
	fmt.Fprintln(w)
	if len(j.Stages) > 0 {
		var parts []string
		// Enum order, not map order: readers scan the pipeline left to right.
		for st := Stage(0); st < NumStages; st++ {
			ns, ok := j.Stages[st.String()]
			if !ok {
				continue
			}
			parts = append(parts, fmt.Sprintf("%s %s/%d", st, fmtNS(ns), j.Counts[st.String()]))
		}
		fmt.Fprintf(w, "%s  stages: %s\n", indent, strings.Join(parts, ", "))
	}
	if len(j.Attrs) > 0 {
		var parts []string
		for _, k := range sortedAttrKeys(j.Attrs) {
			parts = append(parts, fmt.Sprintf("%s=%v", k, j.Attrs[k]))
		}
		fmt.Fprintf(w, "%s  attrs: %s\n", indent, strings.Join(parts, " "))
	}
	for _, c := range j.Children {
		renderSpan(w, c, depth+1)
	}
}

func sortedAttrKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// fmtNS renders a nanosecond duration rounded for humans (full precision
// lives in the JSON form).
func fmtNS(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
