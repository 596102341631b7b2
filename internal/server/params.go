package server

import (
	"net/url"
	"strings"
	"sync"
)

// param is one decoded key=value pair of a query string.
type param struct{ key, val string }

// params is a request's query, parsed once: the pairs url.ParseQuery would
// keep, in arrival order. The usual four or five pairs fit the inline array,
// so a pooled params allocates nothing.
type params struct {
	pairs  []param
	inline [8]param
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
	return q
}

// release returns q to the pool without pinning the request's strings.
func (q *params) release() {
	clear(q.inline[:])
	q.pairs = nil
	paramsPool.Put(q)
}

// All returns the values of key, in arrival order (url.Values[key]).
func (q *params) All(key string) []string {
	var vals []string
	for _, p := range q.pairs {
		if p.key == key {
			vals = append(vals, p.val)
		}
	}
	return vals
}

// Get returns the first value of key, "" when absent (url.Values.Get).
func (q *params) Get(key string) string {
	for _, p := range q.pairs {
		if p.key == key {
			return p.val
		}
	}
	return ""
}
