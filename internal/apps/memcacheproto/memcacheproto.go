// Package memcacheproto implements the memcached ASCII protocol (the
// subset the USR workload exercises: get / set / delete), so the §5.3
// Memcached experiments can run with genuine request parsing over the lite
// UDP stack — requests on the wire are real "get key\r\n" texts, and
// responses are real "VALUE ... END" frames.
package memcacheproto

import (
	"bytes"
	"fmt"
	"strconv"

	"skyloft/internal/apps/kvstore"
)

// Op is a request's operation.
type Op uint8

const (
	// Get retrieves one or more keys.
	Get Op = iota
	// Set stores a value.
	Set
	// Delete removes a key.
	Delete
)

// Request is one parsed client request.
type Request struct {
	Op      Op
	Keys    []string // Get: one or more; Set/Delete: exactly one
	Flags   uint32   // Set
	Exptime int64    // Set
	Data    []byte   // Set
}

var crlf = []byte("\r\n")

// FormatRequest renders a request in wire format.
func FormatRequest(r Request) []byte {
	var b bytes.Buffer
	switch r.Op {
	case Get:
		b.WriteString("get")
		for _, k := range r.Keys {
			b.WriteByte(' ')
			b.WriteString(k)
		}
		b.Write(crlf)
	case Set:
		fmt.Fprintf(&b, "set %s %d %d %d\r\n", r.Keys[0], r.Flags, r.Exptime, len(r.Data))
		b.Write(r.Data)
		b.Write(crlf)
	case Delete:
		fmt.Fprintf(&b, "delete %s\r\n", r.Keys[0])
	}
	return b.Bytes()
}

// ParseRequest parses one wire-format request.
func ParseRequest(msg []byte) (Request, error) {
	line, rest, ok := bytes.Cut(msg, crlf)
	if !ok {
		return Request{}, fmt.Errorf("memcacheproto: missing CRLF")
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return Request{}, fmt.Errorf("memcacheproto: empty request")
	}
	switch string(fields[0]) {
	case "get", "gets":
		if len(fields) < 2 {
			return Request{}, fmt.Errorf("memcacheproto: get without keys")
		}
		r := Request{Op: Get}
		for _, f := range fields[1:] {
			r.Keys = append(r.Keys, string(f))
		}
		return r, nil
	case "set":
		if len(fields) != 5 {
			return Request{}, fmt.Errorf("memcacheproto: set wants 4 arguments, got %d", len(fields)-1)
		}
		flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
		if err != nil {
			return Request{}, fmt.Errorf("memcacheproto: bad flags: %v", err)
		}
		exp, err := strconv.ParseInt(string(fields[3]), 10, 64)
		if err != nil {
			return Request{}, fmt.Errorf("memcacheproto: bad exptime: %v", err)
		}
		n, err := strconv.Atoi(string(fields[4]))
		if err != nil || n < 0 {
			return Request{}, fmt.Errorf("memcacheproto: bad byte count")
		}
		if n > len(rest)-2 || !bytes.Equal(rest[n:n+2], crlf) {
			return Request{}, fmt.Errorf("memcacheproto: data block malformed")
		}
		return Request{
			Op: Set, Keys: []string{string(fields[1])},
			Flags: uint32(flags), Exptime: exp,
			Data: append([]byte(nil), rest[:n]...),
		}, nil
	case "delete":
		if len(fields) != 2 {
			return Request{}, fmt.Errorf("memcacheproto: delete wants 1 key")
		}
		return Request{Op: Delete, Keys: []string{string(fields[1])}}, nil
	default:
		return Request{}, fmt.Errorf("memcacheproto: unknown command %q", fields[0])
	}
}

// Response is one parsed server response.
type Response struct {
	// Values holds VALUE blocks for Get responses (key order preserved).
	Values map[string][]byte
	// Status is "STORED", "DELETED", "NOT_FOUND", "END" or "ERROR".
	Status string
}

// FormatGetResponse renders the VALUE...END reply for found entries.
func FormatGetResponse(values map[string][]byte, order []string) []byte {
	var b bytes.Buffer
	for _, k := range order {
		v, ok := values[k]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "VALUE %s 0 %d\r\n", k, len(v))
		b.Write(v)
		b.Write(crlf)
	}
	b.WriteString("END\r\n")
	return b.Bytes()
}

// ParseResponse parses a server reply.
func ParseResponse(msg []byte) (Response, error) {
	resp := Response{Values: map[string][]byte{}}
	for len(msg) > 0 {
		line, rest, ok := bytes.Cut(msg, crlf)
		if !ok {
			return resp, fmt.Errorf("memcacheproto: missing CRLF in response")
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 {
			msg = rest
			continue
		}
		switch string(fields[0]) {
		case "VALUE":
			if len(fields) != 4 {
				return resp, fmt.Errorf("memcacheproto: malformed VALUE line")
			}
			n, err := strconv.Atoi(string(fields[3]))
			if err != nil || n < 0 || n > len(rest)-2 {
				return resp, fmt.Errorf("memcacheproto: bad VALUE length")
			}
			resp.Values[string(fields[1])] = append([]byte(nil), rest[:n]...)
			msg = rest[n+2:]
		case "END", "STORED", "DELETED", "NOT_FOUND", "ERROR":
			resp.Status = string(fields[0])
			return resp, nil
		default:
			return resp, fmt.Errorf("memcacheproto: unknown response line %q", line)
		}
	}
	return resp, fmt.Errorf("memcacheproto: truncated response")
}

// Server couples the protocol with a store: one call handles one request
// message and produces the reply bytes.
type Server struct {
	Store *kvstore.Memcache

	gets, sets, deletes, errors uint64
}

// NewServer wraps store.
func NewServer(store *kvstore.Memcache) *Server { return &Server{Store: store} }

// Stats reports request counters.
func (s *Server) Stats() (gets, sets, deletes, errors uint64) {
	return s.gets, s.sets, s.deletes, s.errors
}

// Handle processes one request message and returns the reply.
func (s *Server) Handle(msg []byte) []byte {
	req, err := ParseRequest(msg)
	if err != nil {
		s.errors++
		return []byte("ERROR\r\n")
	}
	switch req.Op {
	case Get:
		s.gets++
		values := map[string][]byte{}
		for _, k := range req.Keys {
			if v, ok := s.Store.Get(k); ok {
				values[k] = []byte(v)
			}
		}
		return FormatGetResponse(values, req.Keys)
	case Set:
		s.sets++
		s.Store.Set(req.Keys[0], string(req.Data))
		return []byte("STORED\r\n")
	case Delete:
		s.deletes++
		if s.Store.Delete(req.Keys[0]) {
			return []byte("DELETED\r\n")
		}
		return []byte("NOT_FOUND\r\n")
	default:
		s.errors++
		return []byte("ERROR\r\n")
	}
}
