package server

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/prix"
)

// appendReply appends the JSON of a successful POST /query answer to b:
// byte for byte what json.NewEncoder(w).Encode(*r) writes once r.Matches
// holds one MatchJSON per element of ms, trailing newline included. The
// matches are encoded straight from the engine's []prix.Match, so no
// []MatchJSON is built and r is never boxed; r.Matches itself is not read.
// Field order and omitempty follow QueryResponse's tags (TestReplySchema
// fails when a field is added there and not here). The span tree of
// ?trace=1 goes through json.Marshal.
func appendReply(b []byte, r *QueryResponse, ms []prix.Match) ([]byte, error) {
	b = appendJSONString(append(b, `{"query":`...), r.Query)
	b = strconv.AppendInt(append(b, `,"count":`...), int64(r.Count), 10)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	if r.Shared {
		b = append(b, `,"shared":true`...)
	}
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if len(r.DegradedShards) > 0 {
		b = append(b, `,"degraded_shards":`...)
		for i, s := range r.DegradedShards {
			b = appendJSONString(append(b, listSep(i)), s)
		}
		b = append(b, ']')
	}
	if len(r.Quarantined) > 0 {
		b = append(b, `,"quarantined":`...)
		for i, d := range r.Quarantined {
			b = strconv.AppendUint(append(b, listSep(i)), uint64(d), 10)
		}
		b = append(b, ']')
	}
	if len(ms) > 0 {
		b = append(b, `,"matches":`...)
		for i := range ms {
			m := &ms[i]
			b = strconv.AppendUint(append(append(b, listSep(i)), `{"doc":`...), uint64(m.DocID), 10)
			b = append(b, `,"images":`...)
			if m.Images == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, v := range m.Images {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(v), 10)
				}
				b = append(b, ']')
			}
			b = strconv.AppendInt(append(b, `,"root":`...), int64(m.Root), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	st := &r.Stats
	b = strconv.AppendInt(append(b, `,"stats":{"elapsed_us":`...), st.ElapsedUS, 10)
	b = strconv.AppendInt(append(b, `,"range_queries":`...), int64(st.RangeQueries), 10)
	b = strconv.AppendInt(append(b, `,"candidates":`...), int64(st.Candidates), 10)
	b = strconv.AppendUint(append(b, `,"pages_read":`...), st.PagesRead, 10)
	if st.RecordFetches != 0 {
		b = strconv.AppendInt(append(b, `,"record_fetches":`...), int64(st.RecordFetches), 10)
	}
	b = append(b, '}')
	if r.Trace != nil {
		tree, err := json.Marshal(r.Trace)
		if err != nil {
			return b, err
		}
		b = append(append(b, `,"trace":`...), tree...)
	}
	return append(b, "}\n"...), nil
}

// listSep is what precedes element i of a JSON array: the opening bracket,
// then commas.
func listSep(i int) byte {
	if i == 0 {
		return '['
	}
	return ','
}

// appendJSONString appends s as encoding/json writes a string: quoted, with
// <, > and & escaped for HTML, control bytes escaped, invalid UTF-8 replaced
// by \ufffd and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
