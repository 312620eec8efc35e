package wire

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(64)
	w.Byte(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(123456789)
	w.Varint(-987654321)
	w.Uint64(0xDEADBEEFCAFEF00D)
	w.Float64(3.14159)
	w.Duration(42 * time.Millisecond)

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 0xAB {
		t.Errorf("Byte = %x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Uvarint(); got != 123456789 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -987654321 {
		t.Errorf("Varint = %d", got)
	}
	if got := r.Uint64(); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("Uint64 = %x", got)
	}
	if got := r.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := r.Duration(); got != 42*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	w := NewWriter(32)
	now := time.Date(2005, 7, 1, 10, 30, 0, 123456789, time.UTC)
	w.Time(now)
	w.Time(time.Time{})
	r := NewReader(w.Bytes())
	if got := r.Time(); !got.Equal(now) {
		t.Errorf("Time = %v, want %v", got, now)
	}
	if got := r.Time(); !got.IsZero() {
		t.Errorf("zero Time decoded as %v", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestStringAndBytesRoundTrip(t *testing.T) {
	f := func(s string, b []byte, u [16]byte) bool {
		if len(s) > MaxStringLen || len(b) > MaxBytesLen {
			return true
		}
		w := NewWriter(0)
		w.String(s)
		w.BytesField(b)
		w.Bytes16(u)
		r := NewReader(w.Bytes())
		gs := r.String()
		gb := r.BytesField()
		gu := r.Bytes16()
		if r.Finish() != nil {
			return false
		}
		if gs != s || gu != u {
			return false
		}
		if len(gb) != len(b) {
			return false
		}
		for i := range b {
			if gb[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringListRoundTrip(t *testing.T) {
	f := func(ss []string) bool {
		if len(ss) > MaxListLen {
			return true
		}
		w := NewWriter(0)
		w.StringList(ss)
		r := NewReader(w.Bytes())
		got := r.StringList()
		if r.Finish() != nil {
			return false
		}
		if len(got) != len(ss) {
			return len(ss) == 0 // nil vs empty both fine
		}
		for i := range ss {
			if got[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringMapRoundTrip(t *testing.T) {
	m := map[string]string{"a": "1", "topic": "Services/BDN", "": "empty-key"}
	w := NewWriter(0)
	w.StringMap(m)
	r := NewReader(w.Bytes())
	got := r.StringMap()
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(m) {
		t.Fatalf("len = %d, want %d", len(got), len(m))
	}
	for k, v := range m {
		if got[k] != v {
			t.Fatalf("map[%q] = %q, want %q", k, got[k], v)
		}
	}
}

func TestTruncatedInput(t *testing.T) {
	w := NewWriter(0)
	w.String("hello world")
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
		if !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("err = %v, want ErrTruncated", r.Err())
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{})
	_ = r.Byte() // fails
	first := r.Err()
	_ = r.Uint64()
	_ = r.String()
	if r.Err() != first {
		t.Fatal("error was overwritten")
	}
}

func TestOversizedStringRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(MaxStringLen + 1)
	r := NewReader(w.Bytes())
	_ = r.String()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", r.Err())
	}
}

func TestOversizedListRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(MaxListLen + 1)
	r := NewReader(w.Bytes())
	_ = r.StringList()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", r.Err())
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	w := NewWriter(0)
	w.Byte(1)
	w.Byte(2)
	r := NewReader(w.Bytes())
	_ = r.Byte()
	if err := r.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestBytesFieldCopies(t *testing.T) {
	w := NewWriter(0)
	w.BytesField([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesField()
	buf[len(buf)-1] = 99 // mutate the backing array
	if got[2] != 3 {
		t.Fatal("BytesField aliases the input buffer")
	}
}

func TestBytesFieldAliasShares(t *testing.T) {
	w := NewWriter(0)
	w.BytesField([]byte{1, 2, 3})
	w.BytesField(nil)
	w.Byte(7)
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesFieldAlias()
	if empty := r.BytesFieldAlias(); empty != nil {
		t.Fatalf("empty field = %v, want nil", empty)
	}
	if r.Byte() != 7 || r.Finish() != nil {
		t.Fatal("reader lost its place after the aliased fields")
	}
	buf[3] = 99 // the field's last byte
	if got[2] != 99 {
		t.Fatal("BytesFieldAlias copied the input buffer")
	}
	if cap(got) != len(got) {
		t.Fatalf("cap = %d, want clipped to %d", cap(got), len(got))
	}
}

func BenchmarkWriterTypicalMessage(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(128)
		w.Byte(5)
		w.Bytes16([16]byte{1, 2, 3})
		w.String("Services/BrokerDiscoveryNodes/BrokerAdvertisement")
		w.Time(time.Unix(1120212000, 0))
		w.Uvarint(8)
		w.BytesField([]byte("payload-payload-payload"))
	}
}

func BenchmarkReaderTypicalMessage(b *testing.B) {
	w := NewWriter(128)
	w.Byte(5)
	w.Bytes16([16]byte{1, 2, 3})
	w.String("Services/BrokerDiscoveryNodes/BrokerAdvertisement")
	w.Time(time.Unix(1120212000, 0))
	w.Uvarint(8)
	w.BytesField([]byte("payload-payload-payload"))
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		_ = r.Byte()
		_ = r.Bytes16()
		_ = r.String()
		_ = r.Time()
		_ = r.Uvarint()
		_ = r.BytesField()
		if r.Finish() != nil {
			b.Fatal(r.Err())
		}
	}
}
