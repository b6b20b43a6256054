// Package reqscan reads one line of a /diagnose NDJSON body: a request
// object {"id", "features", "explain"}. Scan reads the line once and
// accepts and rejects exactly the lines that encoding/json accepts and
// rejects when it unmarshals them into serve.Request:
//
//   - field names match case-insensitively, under encoding/json's
//     folding ("ID", "Features", "featureſ" all bind);
//   - a later "features" object merges into an earlier one, a later
//     "features":null drops the features read so far, and the last of
//     duplicate keys wins;
//   - a feature value is a number or null (stored as 0); a string,
//     bool, object or array rejects the line, and so does a number
//     beyond float64's range, on any feature key;
//   - "id" is a string and "explain" a bool; null leaves either as it
//     was, and unknown top-level fields are skipped;
//   - a bare null is an empty request;
//   - escaped keys match after unescaping, and invalid UTF-8 and lone
//     surrogates read as U+FFFD;
//   - nesting deeper than 10,000 levels rejects the line.
//
// It parses a feature value into a float64 only when its key is in the
// caller's wanted set; every other value gets its syntax and range
// check and is skipped. vqserve scans against its model's plan keys,
// vqroute with no wanted keys, for the id alone. The package uses only
// the standard library, so the router links no engine code.
package reqscan

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit; a deeper line is rejected.
const maxDepth = 10000

// Keys is the set of feature names whose values Scan parses. Each name
// maps to itself, so a hit yields the set's own string and storing the
// value allocates no key.
type Keys map[string]string

// NewKeys returns the set of the given names.
func NewKeys(names ...string) Keys {
	k := make(Keys, len(names))
	for _, n := range names {
		k[n] = n
	}
	return k
}

// Request is one scanned line.
type Request struct {
	ID string
	// Features holds the line's values of wanted keys; nil when it
	// carries none.
	Features map[string]float64
	Explain  bool
}

var (
	fieldID       = []byte("id")
	fieldFeatures = []byte("features")
	fieldExplain  = []byte("explain")
)

// Scan reads one request line, parsing the features named in keys (nil
// parses none). The error says what is wrong and at which byte.
func Scan(line []byte, keys Keys) (Request, error) {
	s := scanner{b: line, keys: keys}
	var r Request
	s.ws()
	var err error
	switch s.peek() {
	case '{':
		err = s.object(&r)
	case 'n':
		err = s.literal("null") // a bare null is an empty request
	default:
		err = s.mismatch("the request", "an object")
	}
	if err == nil {
		s.ws()
		if s.i < len(s.b) {
			err = s.invalid("after the request object")
		}
	}
	if err != nil {
		return Request{}, err
	}
	return r, nil
}

// scanner is one line being read; i is the next unread byte.
type scanner struct {
	b    []byte
	i    int
	keys Keys
	tmp  []byte // unescaped key or id, when the raw text has escapes or non-ASCII bytes
}

func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *scanner) ws() {
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	s.i = i
}

// errEOL reports a line that ends inside a value.
var errEOL = errors.New("unexpected end of line")

// invalid reports the byte at s.i, or the end of the line.
func (s *scanner) invalid(where string) error {
	if s.i >= len(s.b) {
		return errEOL
	}
	return fmt.Errorf("invalid character %q %s at byte %d", s.b[s.i], where, s.i)
}

// mismatch reports that the value at s.i is not the kind field needs:
// a syntax error when no value starts there, else a type error.
func (s *scanner) mismatch(field, want string) error {
	var got string
	switch s.peek() {
	case '{':
		got = "an object"
	case '[':
		got = "an array"
	case '"':
		got = "a string"
	case 't', 'f':
		got = "a bool"
	case 'n':
		got = "null"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "a number"
	default:
		return s.invalid("looking for a value")
	}
	return fmt.Errorf("%s must be %s, not %s (byte %d)", field, want, got, s.i)
}

// next consumes the separator after a member or element: it reports
// true at the container's closing byte and false after a comma.
func (s *scanner) next(closer byte) (bool, error) {
	s.ws()
	switch s.peek() {
	case ',':
		s.i++
		return false, nil
	case closer:
		s.i++
		return true, nil
	}
	return false, s.invalid("after a value")
}

// object reads the request object at s.i.
func (s *scanner) object(r *Request) error {
	s.i++
	s.ws()
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		switch {
		case bytes.EqualFold(key, fieldFeatures):
			err = s.features(r)
		case bytes.EqualFold(key, fieldID):
			err = s.id(r)
		case bytes.EqualFold(key, fieldExplain):
			err = s.explain(r)
		default:
			err = s.skip(1)
		}
		if err != nil {
			return err
		}
		if done, err := s.next('}'); done || err != nil {
			return err
		}
	}
}

// key reads an object key and its colon, leaving s.i at the value. The
// returned bytes are unescaped and valid only until the next key.
func (s *scanner) key() ([]byte, error) {
	s.ws()
	if s.peek() != '"' {
		return nil, s.invalid("looking for an object key")
	}
	raw, plain, err := s.str()
	if err != nil {
		return nil, err
	}
	s.ws()
	if s.peek() != ':' {
		return nil, s.invalid("after an object key")
	}
	s.i++
	s.ws()
	return s.text(raw, plain), nil
}

// features reads the "features" value: an object merges into the
// request's map, null drops it.
func (s *scanner) features(r *Request) error {
	switch s.peek() {
	case 'n':
		r.Features = nil
		return s.literal("null")
	case '{':
	default:
		return s.mismatch(`"features"`, "an object")
	}
	s.i++
	s.ws()
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		name, want := s.keys[string(key)]
		v := 0.0 // null stores 0, as encoding/json does
		switch c := s.peek(); {
		case c == '-' || '0' <= c && c <= '9':
			num, mant, err := s.number()
			if err != nil {
				return err
			}
			if want {
				v, err = strconv.ParseFloat(string(num), 64)
			} else if overflows(num, mant) {
				err = strconv.ErrRange
			}
			if err != nil {
				return fmt.Errorf("feature %q: number %s is out of float64 range", key, num)
			}
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return err
			}
		default:
			return s.mismatch(fmt.Sprintf("feature %q", key), "a number")
		}
		if want {
			if r.Features == nil {
				r.Features = make(map[string]float64, len(s.keys))
			}
			r.Features[name] = v
		}
		if done, err := s.next('}'); done || err != nil {
			return err
		}
	}
}

func (s *scanner) id(r *Request) error {
	switch s.peek() {
	case '"':
		raw, plain, err := s.str()
		if err != nil {
			return err
		}
		r.ID = string(s.text(raw, plain))
		return nil
	case 'n':
		return s.literal("null")
	}
	return s.mismatch(`"id"`, "a string")
}

func (s *scanner) explain(r *Request) error {
	switch s.peek() {
	case 't':
		r.Explain = true
		return s.literal("true")
	case 'f':
		r.Explain = false
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	return s.mismatch(`"explain"`, "a bool")
}

// literal consumes word (true, false or null) at s.i.
func (s *scanner) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if s.peek() != word[k] {
			return s.invalid("in literal " + word)
		}
		s.i++
	}
	return nil
}

// str reads the string at s.i and returns the raw bytes between its
// quotes; plain reports that they hold neither escapes nor non-ASCII
// bytes, so they need no unescaping.
func (s *scanner) str() (raw []byte, plain bool, err error) {
	b := s.b
	start := s.i + 1
	i := start
	plain = true
	for {
		for i < len(b) && plainByte[b[i]] {
			i++
		}
		if i >= len(b) {
			return nil, false, errEOL
		}
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:i], plain, nil
		case c == '\\':
			plain = false
			s.i = i + 1
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				s.i++
				for k := 0; k < 4; k++ {
					if unhex(s.peek()) < 0 {
						return nil, false, s.invalid("in a \\u escape")
					}
					s.i++
				}
			default:
				return nil, false, s.invalid("in a string escape")
			}
			i = s.i
		case c < 0x20:
			s.i = i
			return nil, false, s.invalid("in a string")
		default: // a byte of a multi-byte character
			plain = false
			i++
		}
	}
}

// plainByte marks the bytes a string holds as themselves: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// text returns a string's value from its raw bytes, unescaping into
// s.tmp when they are not plain.
func (s *scanner) text(raw []byte, plain bool) []byte {
	if plain {
		return raw
	}
	s.tmp = appendUnquoted(s.tmp[:0], raw)
	return s.tmp
}

// number reads the JSON number at s.i and returns its text and the
// length of its mantissa, the text before any exponent.
func (s *scanner) number() (num []byte, mant int, err error) {
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, 0, s.invalid("in a number")
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil, 0, s.invalid("after a decimal point")
		}
	}
	mant = s.i - start
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil, 0, s.invalid("in an exponent")
		}
	}
	return s.b[start:s.i], mant, nil
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (s *scanner) digits() bool {
	b, i := s.b, s.i
	for i < len(b) && b[i]-'0' < 10 {
		i++
	}
	ok := i > s.i
	s.i = i
	return ok
}

// skip checks the syntax of the value at s.i, which sits at nesting
// depth, and moves past it. It walks nested containers with its own
// stack, so a deep line costs no Go stack.
func (s *scanner) skip(depth int) error {
	var arr [32]byte
	open := arr[:0] // '{' or '[' per container entered
	for {
		switch c := s.peek(); {
		case c == '{' || c == '[':
			if depth+len(open) >= maxDepth {
				return fmt.Errorf("nesting deeper than %d at byte %d", maxDepth, s.i)
			}
			open = append(open, c)
			s.i++
			s.ws()
			if s.peek() == c+2 { // '}' and ']' sit two past '{' and '['
				s.i++
				open = open[:len(open)-1]
				break
			}
			if c == '{' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			continue // read the first member's value
		case c == '"':
			if _, _, err := s.str(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if _, _, err := s.number(); err != nil {
				return err
			}
		case c == 't':
			if err := s.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := s.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := s.literal("null"); err != nil {
				return err
			}
		default:
			return s.invalid("looking for a value")
		}
		// A value ended: close every container it completes, then step
		// to the next member or element.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			done, err := s.next(top + 2)
			if err != nil {
				return err
			}
			if !done {
				if top == '{' {
					if _, err := s.key(); err != nil {
						return err
					}
				} else {
					s.ws()
				}
				break
			}
			open = open[:len(open)-1]
		}
	}
}

// overflows reports whether a JSON number, whose mantissa is its first
// mant bytes, lies beyond float64's range, which encoding/json rejects
// even on a key nothing reads. A mantissa of at most 100 bytes is below
// 1e100, so with no exponent, a negative one or one up to 200 the
// number is below 1e300; only the rest are parsed.
func overflows(num []byte, mant int) bool {
	if mant <= 100 {
		exp := num[mant:]
		if len(exp) == 0 || exp[1] == '-' {
			return false
		}
		exp = exp[1:]
		if exp[0] == '+' {
			exp = exp[1:]
		}
		if len(exp) <= 3 {
			n := 0
			for _, c := range exp {
				n = 10*n + int(c-'0')
			}
			if n <= 200 {
				return false
			}
		}
	}
	_, err := strconv.ParseFloat(string(num), 64)
	return err != nil
}

// appendUnquoted appends the value of a syntax-checked string's raw
// bytes, decoding escapes the way encoding/json does: a surrogate that
// is not half of a valid pair, and each invalid UTF-8 byte, become
// U+FFFD.
func appendUnquoted(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if d := utf16.DecodeRune(r, hex4(raw[i+2:])); d != utf8.RuneError {
							dst = utf8.AppendRune(dst, d)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\' or '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return dst
}

// hex4 decodes the four hex digits at the start of b.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(unhex(c))
	}
	return r
}

func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}
