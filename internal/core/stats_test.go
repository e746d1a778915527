package core

import (
	"reflect"
	"testing"
)

// TestStatsAddDeltaCoverEveryField fills every counter of two Stats,
// array cells included, with distinct non-zero values: Add then Delta
// must give back the operand, so a field either method forgets fails.
func TestStatsAddDeltaCoverEveryField(t *testing.T) {
	var a, b Stats
	next := uint64(1)
	for _, s := range []*Stats{&a, &b} {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Uint64:
				f.SetUint(next)
				next++
			case reflect.Array:
				for j := 0; j < f.Len(); j++ {
					f.Index(j).SetUint(next)
					next++
				}
			default:
				t.Fatalf("Stats.%s has kind %s; teach this test about it", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	sum := a
	sum.Add(&b)
	if got := sum.Delta(a); got != b {
		t.Errorf("(a+b).Delta(a) = %+v, want %+v", got, b)
	}
}
