package kernel_test

import (
	"context"
	"testing"

	"repro/internal/codegen"
	"repro/internal/pipeline"
)

// truncSrc opens an existing file with O_WRONLY|O_TRUNC (no O_CREAT),
// writes one byte two bytes past the start, and prints the file's size and
// bytes: the old contents must be gone and the hole must read as zeros.
const truncSrc = `
int main() {
  char buf[16]; int fd; int n; int i;
  fd = sys_open("/f", 1 | 512, 0);
  sys_lseek(fd, 2, 0);
  sys_write(fd, "x", 1);
  sys_close(fd);
  print_int(sys_stat_size("/f")); print_nl();
  fd = sys_open("/f", 0, 0);
  n = sys_read(fd, buf, 16);
  for (i = 0; i < n; i++) { print_int(buf[i]); print_nl(); }
  return 0;
}`

func TestOpenTruncWithoutCreate(t *testing.T) {
	res, err := pipeline.Do(context.Background(), &pipeline.Request{
		Module: truncSrc,
		Config: codegen.Native(),
		Files:  map[string][]byte{"/f": []byte("hello world")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "3\n0\n0\n120\n"; res.Stdout != want || res.ExitCode != 0 {
		t.Errorf("stdout %q exit %d, want %q exit 0", res.Stdout, res.ExitCode, want)
	}
}
