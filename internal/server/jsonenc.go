package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// jsonEnc appends a /v1 body byte for byte as json.MarshalIndent(v, "", "  ")
// renders the same fields: a body is a fixed sequence of typed members, so
// reflecting over it and re-scanning the output to indent it buy nothing.
// Numbers follow encoding/json's float rule; a string that is not plain
// printable ASCII goes through json.Marshal itself, so the escaper is the
// standard library's, never a second copy.
type jsonEnc struct {
	b     []byte
	depth int
	comma bool // the open container already holds a member
	bad   bool // met a NaN or ±Inf, which JSON cannot carry
}

var encPool = sync.Pool{New: func() any { return new(jsonEnc) }}

const indentSpaces = "\n                " // a newline and eight levels of two spaces

// member starts the next member of the open container (an element when key
// is empty): separator, newline, indentation, key.
func (e *jsonEnc) member(key string) {
	if e.depth == 0 {
		return
	}
	if e.comma {
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, indentSpaces[:1+2*e.depth]...)
	if key != "" {
		e.b = append(e.b, '"')
		e.b = append(e.b, key...)
		e.b = append(e.b, `": `...)
	}
	e.comma = true
}

// open starts an object or array.
func (e *jsonEnc) open(key string, bracket byte) {
	e.member(key)
	e.b = append(e.b, bracket)
	e.depth++
	e.comma = false
}

// end closes the container open started; an empty one stays on one line.
func (e *jsonEnc) end(bracket byte) {
	e.depth--
	if e.comma {
		e.b = append(e.b, indentSpaces[:1+2*e.depth]...)
	}
	e.b = append(e.b, bracket)
	e.comma = true
	if e.depth == 0 {
		e.b = append(e.b, '\n') // the body ends as writeJSON's does
	}
}

func (e *jsonEnc) int(key string, v int) {
	e.member(key)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

func (e *jsonEnc) float(key string, f float64) {
	e.member(key)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	// encoding/json writes e-9 where strconv writes e-09.
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *jsonEnc) str(key, s string) {
	e.member(key)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, quoted...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// null is how encoding/json renders a nil slice.
func (e *jsonEnc) null(key string) {
	e.member(key)
	e.b = append(e.b, "null"...)
}

func (e *jsonEnc) floats(key string, vs []float64) {
	if vs == nil {
		e.null(key)
		return
	}
	e.open(key, '[')
	for _, v := range vs {
		e.float("", v)
	}
	e.end(']')
}

func (e *jsonEnc) reset() { *e = jsonEnc{b: e.b[:0]} }

// writeTo sends the body. A value JSON cannot carry is answered exactly as
// writeJSON answers a failed Marshal.
func (e *jsonEnc) writeTo(w http.ResponseWriter, status int) {
	if e.bad {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(e.b)
}

// jsonContentType is shared by every response: assigned, never appended to,
// and of capacity one, so a later Header().Add copies instead of writing here.
var jsonContentType = []string{"application/json; charset=utf-8"}
