package serve

import (
	"errors"
	"net/http"
	"testing"
)

// errBad stands for any parseUint error but errTooLarge.
var errBad = errors.New("any error but errTooLarge")

// TestParseUintBoundary pins parseUint at the int32 boundary, where a
// guard of n > 2³¹/10 let 2147483648 and 2147483649 through to wrap
// negative on a 32-bit int: MaxInt32 parses, one past it is
// errTooLarge on every word size, and a bad digit past the boundary is
// still a bad digit.
func TestParseUintBoundary(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
		err  error // nil, errTooLarge, or errBad for any other error
	}{
		{"0", 0, nil},
		{"007", 7, nil},
		{"214748364", 214748364, nil},
		{"2147483639", 2147483639, nil},
		{"2147483646", 2147483646, nil},
		{"2147483647", 2147483647, nil},
		{"2147483648", 0, errTooLarge},
		{"2147483649", 0, errTooLarge},
		{"2147483650", 0, errTooLarge},
		{"21474836470", 0, errTooLarge},
		{"999999999999999999999", 0, errTooLarge},
		{"", 0, errBad},
		{"-1", 0, errBad},
		{"+1", 0, errBad},
		{"1 ", 0, errBad},
		{"2147483648x", 0, errBad},
	} {
		got, err := parseUint(c.in)
		switch {
		case c.err == nil && (err != nil || got != c.want):
			t.Errorf("parseUint(%q) = %d, %v; want %d", c.in, got, err, c.want)
		case c.err == errTooLarge && !errors.Is(err, errTooLarge):
			t.Errorf("parseUint(%q) = %d, %v; want errTooLarge", c.in, got, err)
		case c.err == errBad && (err == nil || errors.Is(err, errTooLarge)):
			t.Errorf("parseUint(%q) = %d, %v; want a syntax error", c.in, got, err)
		}
	}
}

// TestIndexPastInt32IsNotFound: a range index or workload bound past
// MaxInt32 is a well-formed index that no job reaches, so it is a 404
// on every word size — never a wrapped negative index, which served a
// nonexistent range's bytes (200) or failed the window (500) under
// GOARCH=386.
func TestIndexPastInt32IsNotFound(t *testing.T) {
	srv, jobID := fuzzServer(t)
	for _, c := range []struct{ path, query string }{
		{"/v1/jobs/" + jobID + "/graph/authors/2147483648", "enc=csr"},
		{"/v1/jobs/" + jobID + "/graph/authors/2147483649", "enc=text"},
		{"/v1/jobs/" + jobID + "/graph/authors/99999999999999999999", ""},
		{"/v1/jobs/" + jobID + "/workload", "from=2147483648&to=1"},
		{"/v1/jobs/" + jobID + "/workload", "from=0&to=2147483649"},
	} {
		if rr := do(srv, http.MethodGet, c.path, c.query, nil); rr.Code != http.StatusNotFound {
			t.Errorf("GET %s?%s: status %d, want 404: %s", c.path, c.query, rr.Code, rr.Body.Bytes())
		}
	}
	for _, c := range []struct{ path, query string }{
		{"/v1/jobs/" + jobID + "/graph/authors/2147483648x", ""},
		{"/v1/jobs/" + jobID + "/workload", "from=x&to=1"},
		{"/v1/jobs/" + jobID + "/workload", "from=0&to=-1"},
	} {
		if rr := do(srv, http.MethodGet, c.path, c.query, nil); rr.Code != http.StatusBadRequest {
			t.Errorf("GET %s?%s: status %d, want 400: %s", c.path, c.query, rr.Code, rr.Body.Bytes())
		}
	}
}
