package server

import (
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// checkParams holds params to the standard library on one raw query: the
// canonical form is url.Values.Encode (so the singleflight key is exactly
// the name + "?" + r.URL.Query().Encode() it always was), and Get and All
// answer as url.Values does for every key.
func checkParams(t testing.TB, raw string) {
	t.Helper()
	u := url.URL{RawQuery: raw}
	want := u.Query()
	q := parseParams(raw)
	defer q.release()
	if got := string(q.appendCanonical(nil)); got != want.Encode() {
		t.Fatalf("canonical(%q) = %q, want url.Values.Encode %q", raw, got, want.Encode())
	}
	n := 0
	for key, vals := range want {
		n += len(vals)
		if got := q.Get(key); got != want.Get(key) {
			t.Fatalf("Get(%q) of %q = %q, want %q", key, raw, got, want.Get(key))
		}
		run := q.All(key)
		if len(run) != len(vals) {
			t.Fatalf("All(%q) of %q has %d values, want %d", key, raw, len(run), len(vals))
		}
		for i, p := range run {
			if p.key != key || p.val != vals[i] {
				t.Fatalf("All(%q)[%d] of %q = %+v, want %q", key, i, raw, p, vals[i])
			}
		}
	}
	if len(q.pairs) != n {
		t.Fatalf("%q parsed into %d pairs, url.Values holds %d", raw, len(q.pairs), n)
	}
	if got := q.Get("\x00absent"); got != "" || len(q.All("\x00absent")) != 0 {
		t.Fatalf("absent key of %q answered %q", raw, got)
	}
}

func FuzzParams(f *testing.F) {
	f.Add("")
	f.Add("b=2&a=1&a=0&%zz=1&x;y=2&&=&a+b=c%20d&=v")
	f.Add("app=Video&c=2000&degree=7&platform=aws&i=d1-4095") // a serve-mix ring URL
	f.Add("a=%&b=%4&c=%41%42&d=+%2B+&%41=upper&a=again")
	f.Add("k=v=w&=&&k&k=&%3D=%26")
	var big strings.Builder
	for i := 0; i < 10000; i++ {
		big.WriteString("k" + strconv.Itoa(i%97) + "=" + strconv.Itoa(i) + "&")
	}
	f.Add(big.String())
	f.Fuzz(func(t *testing.T, raw string) { checkParams(t, raw) })
}

// TestParamsReuse drives one pooled params through queries of shrinking and
// growing size: nothing of an earlier request may survive into a later one.
func TestParamsReuse(t *testing.T) {
	for _, raw := range []string{
		"a=1&b=2&c=3&d=4&e=5&f=6&g=7&h=8&i=9&j=10&k=11", // spills the inline array
		"z=26",
		"",
		"b=2&a=1&a=0",
	} {
		checkParams(t, raw)
	}
}
