package server

import (
	"net/url"
	"slices"
	"strings"
	"sync"
)

// param is one decoded key=value pair of a query string.
type param struct{ key, val string }

// params is a request's query, parsed once: the pairs url.ParseQuery would
// keep, stably sorted by key. That is url.Values.Encode's order (keys sorted,
// a key's values in arrival order), so appendCanonical reproduces it without
// the map, and a key's values are one contiguous run. The usual four or five
// pairs fit the inline array, so a pooled params allocates nothing.
type params struct {
	pairs  []param
	inline [8]param
	key    []byte // scratch for the singleflight key
}

var paramsPool = sync.Pool{New: func() any { return new(params) }}

// parseParams decodes raw exactly as (*url.URL).Query does: a pair holding a
// ';' or a bad escape is dropped, an empty pair skipped. Pair with release.
func parseParams(raw string) *params {
	q := paramsPool.Get().(*params)
	q.pairs = q.inline[:0]
	escaped := strings.ContainsAny(raw, "%+")
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		if escaped {
			var errK, errV error
			key, errK = url.QueryUnescape(key)
			val, errV = url.QueryUnescape(val)
			if errK != nil || errV != nil {
				continue
			}
		}
		q.pairs = append(q.pairs, param{key, val})
	}
	slices.SortStableFunc(q.pairs, func(a, b param) int { return strings.Compare(a.key, b.key) })
	return q
}

// release returns q to the pool without pinning the request's strings.
func (q *params) release() {
	clear(q.inline[:])
	q.pairs = nil
	paramsPool.Put(q)
}

// All returns the pairs carrying key, in arrival order.
func (q *params) All(key string) []param {
	lo := 0
	for lo < len(q.pairs) && q.pairs[lo].key != key {
		lo++
	}
	hi := lo
	for hi < len(q.pairs) && q.pairs[hi].key == key {
		hi++
	}
	return q.pairs[lo:hi]
}

// Get returns the first value of key, "" when absent (url.Values.Get).
func (q *params) Get(key string) string {
	if run := q.All(key); len(run) > 0 {
		return run[0].val
	}
	return ""
}

// appendCanonical appends the query exactly as url.Values.Encode renders it:
// the coalescing key, in which parameters no route reads (a client's nonce)
// still separate requests, as they always have.
func (q *params) appendCanonical(b []byte) []byte {
	for i, p := range q.pairs {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, url.QueryEscape(p.key)...)
		b = append(b, '=')
		b = append(b, url.QueryEscape(p.val)...)
	}
	return b
}
