package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/prix"
	"repro/internal/twig"
	"repro/internal/xmltree"
)

// encodeOld is a reply as the handler wrote it before appendReply: the
// matches copied into []MatchJSON and the whole response encoded by
// encoding/json's Encoder.
func encodeOld(t testing.TB, r QueryResponse, ms []prix.Match) []byte {
	t.Helper()
	if ms != nil {
		r.Matches = make([]MatchJSON, len(ms))
		for i := range ms {
			r.Matches[i] = MatchJSON{Doc: ms[i].DocID, Images: ms[i].Images, Root: ms[i].Root}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplySchema pins the wire schema appendReply writes by hand: a field
// added to QueryResponse, ResponseStat or MatchJSON, renamed or reordered,
// fails here until appendReply writes it too.
func TestReplySchema(t *testing.T) {
	for _, c := range []struct {
		v    any
		tags []string
	}{
		{QueryResponse{}, []string{"query", "count", "cached", "shared,omitempty",
			"truncated,omitempty", "degraded,omitempty", "degraded_shards,omitempty",
			"quarantined,omitempty", "matches,omitempty", "stats", "trace,omitempty"}},
		{ResponseStat{}, []string{"elapsed_us", "range_queries", "candidates", "pages_read",
			"record_fetches,omitempty"}},
		{MatchJSON{}, []string{"doc", "images", "root"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Tag.Get("json"))
		}
		if !reflect.DeepEqual(got, c.tags) {
			t.Errorf("%s tags %q, appendReply writes %q", typ.Name(), got, c.tags)
		}
	}
}

// TestReplyByteParity serves every planted query of SWISSPROT and of the
// benchmark's MIX (DBLP ∪ SWISSPROT ∪ TREEBANK at scale 2, a 64-page pool,
// no hot tier) through the handler — plain, count_only,
// truncated by limit, and with ?trace=1 — and compares each reply byte for
// byte with encodeOld's. The expected response is built from an independent
// Match; only what a run cannot repeat (elapsed_us, pages_read and the span
// tree's timings) is taken from the reply.
func TestReplyByteParity(t *testing.T) {
	swiss := datagen.SwissProt(1, 1)
	var mix []*xmltree.Document
	var mixQs []datagen.QuerySpec
	for _, name := range datagen.Names() {
		ds, err := datagen.ByName(name, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, ds.Docs...)
		mixQs = append(mixQs, ds.Queries...)
	}
	for _, c := range []struct {
		name string
		docs []*xmltree.Document
		qs   []datagen.QuerySpec
		opt  prix.Options
	}{
		{"SWISSPROT", swiss.Docs, swiss.Queries, prix.Options{Extended: true, HotBudget: 64 << 20}},
		{"MIX", mix, mixQs, prix.Options{Extended: true, BufferPoolPages: 64}},
	} {
		ix, err := prix.Build(c.docs, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		h := New(ix, Config{CacheCapacity: -1, Parallelism: 1}).Handler()
		for _, qs := range c.qs {
			q := twig.MustParse(qs.XPath)
			ms, st, err := ix.Match(q, prix.MatchOptions{WarmCache: true, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != qs.Want {
				t.Fatalf("%s %s: %d matches, want %d", c.name, qs.ID, len(ms), qs.Want)
			}
			for _, v := range []struct {
				name, path string
				req        QueryRequest
			}{
				{"plain", "/query", QueryRequest{Query: qs.XPath}},
				{"count_only", "/query", QueryRequest{Query: qs.XPath, CountOnly: true}},
				{"limit", "/query", QueryRequest{Query: qs.XPath, Limit: max(1, qs.Want/2)}},
				{"trace", "/query?trace=1", QueryRequest{Query: qs.XPath}},
			} {
				raw, _ := json.Marshal(v.req)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, v.path, bytes.NewReader(raw)))
				got := rec.Body.Bytes()
				var back QueryResponse
				if err := json.Unmarshal(got, &back); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("%s %s %s: status %d, %v: %s", c.name, qs.ID, v.name, rec.Code, err, got)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s %s %s: Content-Type %q", c.name, qs.ID, v.name, ct)
				}
				want := QueryResponse{
					Query: q.String(),
					Count: len(ms),
					Stats: ResponseStat{
						ElapsedUS:     back.Stats.ElapsedUS,
						RangeQueries:  st.RangeQueries,
						Candidates:    st.Candidates,
						PagesRead:     back.Stats.PagesRead,
						RecordFetches: st.RecordFetches,
					},
				}
				wms := ms
				switch v.name {
				case "count_only":
					wms = nil
				case "limit":
					if len(ms) > v.req.Limit {
						wms, want.Truncated = ms[:v.req.Limit], true
					}
				case "trace":
					if back.Trace == nil || back.Trace.Name != "query" {
						t.Fatalf("%s %s: ?trace=1 reply has no trace tree: %s", c.name, qs.ID, got)
					}
					want.Trace = back.Trace
				}
				if exp := encodeOld(t, want, wms); !bytes.Equal(got, exp) {
					t.Errorf("%s %s %s: reply differs from encoding/json's\n got %s\nwant %s", c.name, qs.ID, v.name, got, exp)
				}
			}
		}
		ix.Close()
	}
}

// fuzzBytes hands out a fuzz input's bytes one field at a time, zeros once
// it runs dry.
type fuzzBytes []byte

func (f *fuzzBytes) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzBytes) u32() uint32 {
	return uint32(f.byte()) | uint32(f.byte())<<8 | uint32(f.byte())<<16 | uint32(f.byte())<<24
}

// FuzzQueryReply checks appendReply against encoding/json over fuzzed
// responses: the query string and shard names carry quotes, backslashes,
// HTML metacharacters, U+2028, control bytes and invalid UTF-8; matches
// have nil, empty and long images and negative roots; responses are
// degraded, by shard or by quarantined ids, truncated, shared, cached, and
// traced with a span tree named by the query.
func FuzzQueryReply(f *testing.F) {
	f.Add(`//Entry[./Org="Piroplasmida"][.//Author]//from`, "shard-002", []byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add("a\"b\\c<d>e&f\u2028g\u2029h\x00\x1f\x7f\ti\nj\rk\bl\fm", "<&>", []byte{0xff, 0xff, 0xff, 200, 1, 2})
	f.Add("\xff\xfe\xc3(\xe2\x82\xed\xa0\x80", "\xc0\xaf", []byte{0x5a, 0x80, 0x01})
	f.Add("", "", []byte{})
	// Every field set: shared, truncated, traced, degraded by two shards and two
	// quarantined ids, record fetches, and three matches whose images are
	// nil, empty and four long.
	f.Add("//a", "shard-001", []byte{
		0x7f,       // flags
		1, 0, 0, 0, // elapsed
		3, 0, 0, 0, // count
		7,          // range queries
		9, 0, 0, 0, // candidates
		1, 0, 0, 0, // pages read
		10,   // record fetches + 8
		2,    // degraded shards
		2, 1, // two quarantined ids
		4, 0, 0, 0, 5, 0, 0, 0,
		3,                         // matches
		1, 0, 0, 0, 2, 0, 0, 0, 0, // nil images
		2, 0, 0, 0, 3, 0, 0, 0, 100, // empty images
		3, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 129, // four images, root -1
		1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff,
	})
	f.Fuzz(func(t *testing.T, query, shard string, data []byte) {
		in := fuzzBytes(data)
		flags := in.byte()
		elapsed := int64(in.u32()) << 24
		if flags&128 != 0 {
			elapsed = -elapsed
		}
		r := QueryResponse{
			Query:     query,
			Count:     int(int32(in.u32())),
			Cached:    flags&2 != 0,
			Shared:    flags&4 != 0,
			Truncated: flags&8 != 0,
			Degraded:  flags&16 != 0,
			Stats: ResponseStat{
				ElapsedUS:     elapsed,
				RangeQueries:  int(in.byte()),
				Candidates:    int(in.u32()),
				PagesRead:     uint64(in.u32()) << 32,
				RecordFetches: int(in.byte()) - 8,
			},
		}
		for i := int(in.byte() % 4); i > 0; i-- {
			r.DegradedShards = append(r.DegradedShards, shard)
		}
		switch in.byte() % 3 {
		case 1:
			r.Quarantined = []uint32{}
		case 2:
			for i := int(in.byte()%5) + 1; i > 0; i-- {
				r.Quarantined = append(r.Quarantined, in.u32())
			}
		}
		if flags&32 != 0 {
			tr := obs.NewTrace("query")
			sp := tr.Root().ChildKeyed("match", shard)
			sp.SetStr("query", query)
			sp.SetInt("candidates", int64(r.Stats.Candidates))
			tr.Finish()
			r.Trace = tr.Tree()
			tr.Release()
		}
		var ms []prix.Match
		if flags&64 != 0 {
			ms = []prix.Match{}
		}
		for n := int(in.byte() % 8); n > 0; n-- {
			m := prix.Match{DocID: in.u32(), Root: int32(in.u32())}
			switch k := in.byte(); {
			case k < 64: // nil images
			case k < 128:
				m.Images = []int32{}
			default:
				for i := int(k % 9); i >= 0; i-- {
					m.Images = append(m.Images, int32(in.u32()))
				}
			}
			ms = append(ms, m)
		}
		got, err := appendReply([]byte("prefix"), &r, ms)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("appendReply overwrote what it appends to: %q", got)
		}
		if want := encodeOld(t, r, ms); !bytes.Equal(got[len("prefix"):], want) {
			t.Fatalf("appendReply differs from encoding/json\n got %q\nwant %q", got[len("prefix"):], want)
		}
	})
}
