package memcacheproto

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"skyloft/internal/apps/kvstore"
)

func TestGetRoundTrip(t *testing.T) {
	msg := FormatRequest(Request{Op: Get, Keys: []string{"a", "b"}})
	if string(msg) != "get a b\r\n" {
		t.Fatalf("wire = %q", msg)
	}
	r, err := ParseRequest(msg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != Get || len(r.Keys) != 2 || r.Keys[0] != "a" || r.Keys[1] != "b" {
		t.Fatalf("parsed %+v", r)
	}
}

func TestSetRoundTrip(t *testing.T) {
	msg := FormatRequest(Request{Op: Set, Keys: []string{"k"}, Flags: 7, Exptime: 60, Data: []byte("hello\r\nworld")})
	r, err := ParseRequest(msg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Op != Set || r.Keys[0] != "k" || r.Flags != 7 || r.Exptime != 60 ||
		string(r.Data) != "hello\r\nworld" {
		t.Fatalf("parsed %+v", r)
	}
}

func TestDeleteRoundTrip(t *testing.T) {
	r, err := ParseRequest(FormatRequest(Request{Op: Delete, Keys: []string{"gone"}}))
	if err != nil || r.Op != Delete || r.Keys[0] != "gone" {
		t.Fatalf("parsed %+v err %v", r, err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		[]byte(""),
		[]byte("get a b"),               // no CRLF
		[]byte("frobnicate x\r\n"),      // unknown op
		[]byte("get\r\n"),               // no keys
		[]byte("set k 0 0\r\n"),         // missing length
		[]byte("set k 0 0 5\r\nhi\r\n"), // short data
		[]byte("set k x 0 2\r\nhi\r\n"), // bad flags
		[]byte("delete\r\n"),
	}
	for _, m := range bad {
		if _, err := ParseRequest(m); err == nil {
			t.Errorf("accepted %q", m)
		}
	}
}

// Property: set requests with arbitrary binary data round trip exactly.
func TestQuickSetRoundTrip(t *testing.T) {
	f := func(key uint16, data []byte) bool {
		k := fmt.Sprintf("key-%d", key)
		msg := FormatRequest(Request{Op: Set, Keys: []string{k}, Data: data})
		r, err := ParseRequest(msg)
		return err == nil && r.Keys[0] == k && bytes.Equal(r.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerSemantics(t *testing.T) {
	srv := NewServer(kvstore.NewMemcache(8))

	if got := srv.Handle(FormatRequest(Request{Op: Set, Keys: []string{"k1"}, Data: []byte("v1")})); string(got) != "STORED\r\n" {
		t.Fatalf("set reply %q", got)
	}
	reply := srv.Handle(FormatRequest(Request{Op: Get, Keys: []string{"k1", "nope"}}))
	resp, err := ParseResponse(reply)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "END" || string(resp.Values["k1"]) != "v1" {
		t.Fatalf("get resp %+v", resp)
	}
	if _, found := resp.Values["nope"]; found {
		t.Fatal("missing key returned a VALUE")
	}
	if got := srv.Handle(FormatRequest(Request{Op: Delete, Keys: []string{"k1"}})); string(got) != "DELETED\r\n" {
		t.Fatalf("delete reply %q", got)
	}
	if got := srv.Handle(FormatRequest(Request{Op: Delete, Keys: []string{"k1"}})); string(got) != "NOT_FOUND\r\n" {
		t.Fatalf("second delete reply %q", got)
	}
	if got := srv.Handle([]byte("bogus\r\n")); string(got) != "ERROR\r\n" {
		t.Fatalf("error reply %q", got)
	}
	gets, sets, dels, errs := srv.Stats()
	if gets != 1 || sets != 1 || dels != 2 || errs != 1 {
		t.Fatalf("stats %d/%d/%d/%d", gets, sets, dels, errs)
	}
}

func TestResponseValueWithCRLFInData(t *testing.T) {
	srv := NewServer(kvstore.NewMemcache(8))
	srv.Handle(FormatRequest(Request{Op: Set, Keys: []string{"k"}, Data: []byte("a\r\nb")}))
	resp, err := ParseResponse(srv.Handle(FormatRequest(Request{Op: Get, Keys: []string{"k"}})))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Values["k"]) != "a\r\nb" {
		t.Fatalf("binary-safe value lost: %q", resp.Values["k"])
	}
}

// FuzzMemcacheProto feeds arbitrary bytes to both parsers: neither may
// panic, and a request that parses must survive FormatRequest unchanged.
func FuzzMemcacheProto(f *testing.F) {
	f.Add([]byte("get a b\r\n"))
	f.Add([]byte("set k 7 -1 3\r\nv\r\n\r\n"))
	f.Add([]byte("delete k\r\n"))
	f.Add([]byte("VALUE k 0 2\r\nab\r\nEND\r\n"))
	f.Fuzz(func(t *testing.T, msg []byte) {
		ParseResponse(msg)
		r, err := ParseRequest(msg)
		if err != nil {
			return
		}
		wire := FormatRequest(r)
		back, err := ParseRequest(wire)
		if err != nil {
			t.Fatalf("re-encoded %+v as %q, which does not parse: %v", r, wire, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip through %q: got %+v, want %+v", wire, back, r)
		}
	})
}
