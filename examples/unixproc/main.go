// Unix processes in the browser: a parent program spawns a child, they talk
// through a pipe, and results land in the shared BrowserFS — the Browsix
// capabilities the paper's harness is built on (Figure 2).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/codegen"
	"repro/internal/kernel"
	"repro/internal/pipeline"
)

const childSrc = `
int main(int argc, char **argv) {
  /* Reads words from stdin, writes their lengths to /tmp/lengths.txt. */
  char buf[256];
  int n = sys_read(0, buf, 255);
  buf[n] = 0;
  int fd = sys_open("/tmp/lengths.txt", 64 | 512 | 1, 0);
  int i = 0;
  while (i < n) {
    int start = i;
    while (i < n && buf[i] != ' ' && buf[i] != '\n') { i++; }
    if (i > start) { fd_put_int(fd, i - start); sys_write(fd, "\n", 1); }
    while (i < n && (buf[i] == ' ' || buf[i] == '\n')) { i++; }
  }
  sys_close(fd);
  return 0;
}`

const parentSrc = `
int main(int argc, char **argv) {
  int fds[2];
  sys_pipe(fds);
  /* Redirect the child's stdin to the pipe's read end. */
  int savedIn = 0;
  sys_dup2(fds[0], 0);
  char *args[2];
  args[0] = "child";
  args[1] = (char*)0;
  int pid = sys_spawn("/bin/child", args);
  if (pid < 0) { return 1; }
  sys_write(fds[1], "unix in your browser tab\n", 25);
  sys_close(fds[1]);
  int code = sys_wait(pid);
  print_str("child exited with ");
  print_int(code);
  print_nl();
  return code;
}`

func main() {
	ctx := context.Background()
	cfg := codegen.Firefox()
	parent, err := pipeline.Compile(ctx, &pipeline.Request{Module: parentSrc, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	child, err := pipeline.Compile(ctx, &pipeline.Request{Module: childSrc, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}

	k := kernel.New(nil)
	if err := k.FS.MkdirAll("/tmp"); err != nil {
		log.Fatal(err)
	}
	k.RegisterBinary("/bin/parent", parent)
	k.RegisterBinary("/bin/child", child)

	p, err := k.Spawn(nil, "/bin/parent", []string{"parent"}, [3]*kernel.FD{})
	if err != nil {
		log.Fatal(err)
	}
	code, err := k.WaitPID(p.PID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("console: %q (exit %d)\n", string(k.Console), code)

	lengths, err := k.FS.ReadFile("/tmp/lengths.txt")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("/tmp/lengths.txt:\n%s", lengths)
	fmt.Printf("parent spent %.2f%% of its time in Browsix syscalls\n", p.BrowsixShare()*100)
}
