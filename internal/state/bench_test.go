package state

import (
	"fmt"
	"testing"
)

func benchKV(b *testing.B) *KV {
	b.Helper()
	kv, err := OpenKV(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { kv.Close() })
	return kv
}

func BenchmarkKVPut(b *testing.B) {
	kv := benchKV(b)
	value := make([]byte, 128)
	b.ReportAllocs()
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%4096))
		if err := kv.Put(key, value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVGet(b *testing.B) {
	kv := benchKV(b)
	value := make([]byte, 128)
	for i := 0; i < 4096; i++ {
		kv.Put([]byte(fmt.Sprintf("key-%d", i)), value)
	}
	kv.Checkpoint(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%4096))
		if _, ok, err := kv.Get(key); err != nil || !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkMemStorePut(b *testing.B) {
	s := NewMem()
	defer s.Close()
	value := make([]byte, 128)
	b.ReportAllocs()
	b.SetBytes(128)
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%4096))
		if err := s.Put(key, value); err != nil {
			b.Fatal(err)
		}
	}
}
