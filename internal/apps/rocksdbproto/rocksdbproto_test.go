package rocksdbproto

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"skyloft/internal/apps/kvstore"
)

func TestRequestRoundTrips(t *testing.T) {
	cases := []Request{
		{Op: Get, Key: "key-001"},
		{Op: Scan, Key: "key-010", Count: 25},
		{Op: Put, Key: "k", Data: []byte("binary\r\nsafe")},
	}
	for _, want := range cases {
		got, err := ParseRequest(FormatRequest(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got.Op != want.Op || got.Key != want.Key || got.Count != want.Count ||
			!bytes.Equal(got.Data, want.Data) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, m := range [][]byte{
		[]byte(""),
		[]byte("GET k"),
		[]byte("GET\r\n"),
		[]byte("SCAN k\r\n"),
		[]byte("SCAN k -3\r\n"),
		[]byte("PUT k 9\r\nshort\r\n"),
		[]byte("NUKE k\r\n"),
	} {
		if _, err := ParseRequest(m); err == nil {
			t.Errorf("accepted %q", m)
		}
	}
}

// Property: PUT round-trips arbitrary binary payloads.
func TestQuickPutRoundTrip(t *testing.T) {
	f := func(key uint16, data []byte) bool {
		k := fmt.Sprintf("key-%d", key)
		r, err := ParseRequest(FormatRequest(Request{Op: Put, Key: k, Data: data}))
		return err == nil && r.Key == k && bytes.Equal(r.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestServerGetScanPut(t *testing.T) {
	db := kvstore.NewLSM(64)
	for i := 0; i < 200; i++ {
		db.Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
	}
	srv := NewServer(db)

	// GET hit.
	resp, err := ParseResponse(srv.Handle(FormatRequest(Request{Op: Get, Key: "key-050"})))
	if err != nil || resp.Status != "VALUE" || string(resp.Data) != "v50" {
		t.Fatalf("GET: %+v err %v", resp, err)
	}
	// GET miss.
	resp, _ = ParseResponse(srv.Handle(FormatRequest(Request{Op: Get, Key: "zzz"})))
	if resp.Status != "NOT_FOUND" {
		t.Fatalf("miss: %+v", resp)
	}
	// SCAN.
	resp, err = ParseResponse(srv.Handle(FormatRequest(Request{Op: Scan, Key: "key-1", Count: 10})))
	if err != nil || resp.Status != "ROWS" || len(resp.Rows) != 10 {
		t.Fatalf("SCAN: %+v err %v", resp, err)
	}
	if string(resp.Rows[0]) != "v100" {
		t.Fatalf("SCAN first row %q", resp.Rows[0])
	}
	// PUT then GET.
	if r, _ := ParseResponse(srv.Handle(FormatRequest(Request{Op: Put, Key: "new", Data: []byte("x")}))); r.Status != "OK" {
		t.Fatalf("PUT: %+v", r)
	}
	resp, _ = ParseResponse(srv.Handle(FormatRequest(Request{Op: Get, Key: "new"})))
	if resp.Status != "VALUE" || string(resp.Data) != "x" {
		t.Fatalf("PUT round trip: %+v", resp)
	}
	// Garbage.
	if r, _ := ParseResponse(srv.Handle([]byte("junk\r\n"))); r.Status != "ERR" {
		t.Fatalf("garbage: %+v", r)
	}
	gets, scans, puts, errs := srv.Stats()
	if gets != 3 || scans != 1 || puts != 1 || errs != 1 {
		t.Fatalf("stats %d/%d/%d/%d", gets, scans, puts, errs)
	}
}

// FuzzRocksDBProto feeds arbitrary bytes to both parsers: neither may
// panic, and a request that parses must survive FormatRequest unchanged.
func FuzzRocksDBProto(f *testing.F) {
	f.Add([]byte("GET key-00000001\r\n"))
	f.Add([]byte("SCAN key-00000001 500\r\n"))
	f.Add([]byte("PUT k 4\r\nab\r\n\r\n"))
	f.Add([]byte("ROWS 2\r\n1 a\r\n2 bc\r\n"))
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
