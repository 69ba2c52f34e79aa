package minic_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/minic"
	"repro/internal/pipeline"
	"repro/internal/wasm"
)

// engines under differential test.
func engines() []*codegen.EngineConfig {
	return []*codegen.EngineConfig{
		codegen.Native(), codegen.Chrome(), codegen.Firefox(), codegen.AsmJSChrome(),
	}
}

// runAll runs src on every engine and checks stdout and exit code agree with
// want (and across engines).
func runAll(t *testing.T, src, wantOut string, wantCode int) {
	t.Helper()
	for _, cfg := range engines() {
		res, err := pipeline.Do(context.Background(), &pipeline.Request{Module: src, Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.Stdout != wantOut {
			t.Errorf("%s: stdout = %q, want %q", cfg.Name, res.Stdout, wantOut)
		}
		if res.ExitCode != wantCode {
			t.Errorf("%s: exit = %d, want %d", cfg.Name, res.ExitCode, wantCode)
		}
	}
}

func TestCompileValidates(t *testing.T) {
	src := `int main() { return 42; }`
	for _, abi := range []minic.ABI{minic.ABI32, minic.ABI64} {
		m, err := minic.Compile(src, abi)
		if err != nil {
			t.Fatal(err)
		}
		if err := wasm.Validate(m); err != nil {
			t.Fatalf("validate: %v", err)
		}
	}
}

func TestReturnCode(t *testing.T) {
	runAll(t, `int main() { return 42; }`, "", 42)
}

func TestArith(t *testing.T) {
	src := `
int main() {
  int a = 7; int b = 3;
  print_int(a + b); print_nl();
  print_int(a - b); print_nl();
  print_int(a * b); print_nl();
  print_int(a / b); print_nl();
  print_int(a % b); print_nl();
  print_int(a << 2); print_nl();
  print_int(-a >> 1); print_nl();
  print_int(a & b); print_nl();
  print_int(a | 8); print_nl();
  print_int(a ^ b); print_nl();
  return 0;
}`
	runAll(t, src, "10\n4\n21\n2\n1\n28\n-4\n3\n15\n4\n", 0)
}

func TestControlFlow(t *testing.T) {
	src := `
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps++;
  }
  return steps;
}
int main() {
  print_int(collatz(27)); print_nl();
  int s = 0; int i;
  for (i = 0; i < 10; i++) {
    if (i == 3) continue;
    if (i == 8) break;
    s += i;
  }
  print_int(s); print_nl();
  do { s += 100; } while (0);
  print_int(s); print_nl();
  return 0;
}`
	runAll(t, src, "111\n25\n125\n", 0)
}

func TestPointersAndArrays(t *testing.T) {
	src := `
int g[10];
int sum(int *p, int n) {
  int s = 0; int i;
  for (i = 0; i < n; i++) { s += p[i]; }
  return s;
}
int main() {
  int i;
  int local[5];
  for (i = 0; i < 10; i++) { g[i] = i * i; }
  for (i = 0; i < 5; i++) { local[i] = i + 1; }
  print_int(sum(g, 10)); print_nl();
  print_int(sum(local, 5)); print_nl();
  int *p = g + 2;
  print_int(*p); print_nl();
  print_int(p[3]); print_nl();
  p++;
  print_int(*p); print_nl();
  print_int((int)(p - g)); print_nl();
  return 0;
}`
	runAll(t, src, "285\n15\n4\n25\n9\n3\n", 0)
}

func TestStructs(t *testing.T) {
	src := `
struct Node {
  int value;
  struct Node *next;
};
int main() {
  struct Node *head = 0;
  int i;
  for (i = 0; i < 10; i++) {
    struct Node *n = (struct Node*)malloc(sizeof(struct Node));
    n->value = i;
    n->next = head;
    head = n;
  }
  int s = 0;
  struct Node *p = head;
  while (p) { s += p->value; p = p->next; }
  print_int(s); print_nl();
  print_int(head->value); print_nl();
  return 0;
}`
	runAll(t, src, "45\n9\n", 0)
}

func TestStructSizeDiffersByABI(t *testing.T) {
	src := `
struct Node { int v; struct Node *next; };
int main() { return sizeof(struct Node); }`
	res32, err := pipeline.Do(context.Background(), &pipeline.Request{Module: src, Config: codegen.Chrome()})
	if err != nil {
		t.Fatal(err)
	}
	res64, err := pipeline.Do(context.Background(), &pipeline.Request{Module: src, Config: codegen.Native()})
	if err != nil {
		t.Fatal(err)
	}
	if res32.ExitCode != 8 {
		t.Errorf("wasm32 sizeof(Node) = %d, want 8", res32.ExitCode)
	}
	if res64.ExitCode != 16 {
		t.Errorf("native sizeof(Node) = %d, want 16", res64.ExitCode)
	}
}

func TestDoubles(t *testing.T) {
	src := `
double poly(double x) { return 3.0 * x * x - 2.0 * x + 1.0; }
int main() {
  print_fixed(poly(2.0)); print_nl();
  print_fixed(sqrt(2.0)); print_nl();
  print_fixed(fabs(-2.5)); print_nl();
  print_fixed(floor(2.7)); print_nl();
  double d = 10.0; int i = (int)(d / 3.0);
  print_int(i); print_nl();
  return 0;
}`
	runAll(t, src, "9.000000\n1.414214\n2.500000\n2.000000\n3\n", 0)
}

func TestLongArith(t *testing.T) {
	src := `
int main() {
  long a = 1000000007;
  long b = a * a % 998244353;
  print_long(b); print_nl();
  long big = 1;
  int i;
  for (i = 0; i < 40; i++) { big = big * 2; }
  print_long(big); print_nl();
  unsigned long u = 0;
  u = u - 1;
  print_long((long)(u >> 32)); print_nl();
  return 0;
}`
	res, err := pipeline.Do(context.Background(), &pipeline.Request{Module: src, Config: codegen.Native()})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Stdout
	if !strings.Contains(want, "1099511627776") {
		t.Fatalf("unexpected native output %q", want)
	}
	runAll(t, src, want, 0)
}

func TestFunctionPointers(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(int (*f)(int, int), int a, int b) { return f(a, b); }
int main() {
  int (*op)(int, int);
  op = add;
  print_int(apply(op, 3, 4)); print_nl();
  op = mul;
  print_int(apply(op, 3, 4)); print_nl();
  print_int(op(5, 6)); print_nl();
  return 0;
}`
	runAll(t, src, "7\n12\n30\n", 0)
}

func TestSwitch(t *testing.T) {
	src := `
int classify(int c) {
  switch (c) {
  case 0: return 100;
  case 1:
  case 2: return 200;
  case 3: { int x = c * 2; return x; }
  case 7: break;
  default: return 400;
  }
  return 500;
}
int main() {
  print_int(classify(0)); print_nl();
  print_int(classify(1)); print_nl();
  print_int(classify(2)); print_nl();
  print_int(classify(3)); print_nl();
  print_int(classify(7)); print_nl();
  print_int(classify(99)); print_nl();
  return 0;
}`
	runAll(t, src, "100\n200\n200\n6\n500\n400\n", 0)
}

func TestStringsAndChars(t *testing.T) {
	src := `
int main() {
  char *s = "hello";
  print_int(strlen(s)); print_nl();
  char buf[32];
  strcpy(buf, s);
  buf[0] = 'H';
  puts(buf);
  print_int(strcmp("abc", "abd")); print_nl();
  print_int(atoi("-1234")); print_nl();
  return 0;
}`
	runAll(t, src, "5\nHello\n-1\n-1234\n", 0)
}

func TestMallocFree(t *testing.T) {
	src := `
int main() {
  int i; int total = 0;
  for (i = 0; i < 100; i++) {
    int *p = (int*)malloc(40);
    int j;
    for (j = 0; j < 10; j++) { p[j] = i + j; }
    total += p[9];
    free((char*)p);
  }
  print_int(total); print_nl();
  return 0;
}`
	runAll(t, src, "5850\n", 0)
}

func TestGlobalInitializers(t *testing.T) {
	src := `
int table[5] = {10, 20, 30, 40, 50};
double pi = 3.14159;
char *msg = "hi";
int factor = 6 * 7;
int main() {
  int i; int s = 0;
  for (i = 0; i < 5; i++) { s += table[i]; }
  print_int(s); print_nl();
  print_int(factor); print_nl();
  puts(msg);
  print_fixed(pi); print_nl();
  return 0;
}`
	runAll(t, src, "150\n42\nhi\n3.141590\n", 0)
}

func TestRecursionAndTernary(t *testing.T) {
	src := `
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main() {
  print_int(fib(20)); print_nl();
  int x = 5;
  int y = x > 3 ? (x > 4 ? 100 : 50) : 0;
  print_int(y); print_nl();
  return 0;
}`
	runAll(t, src, "6765\n100\n", 0)
}

func TestLogicalOps(t *testing.T) {
	src := `
int sideEffect(int *c, int v) { *c = *c + 1; return v; }
int main() {
  int calls = 0;
  int r = sideEffect(&calls, 0) && sideEffect(&calls, 1);
  print_int(r); print_int(calls); print_nl();
  calls = 0;
  r = sideEffect(&calls, 1) || sideEffect(&calls, 0);
  print_int(r); print_int(calls); print_nl();
  print_int(!5); print_int(!0); print_nl();
  return 0;
}`
	runAll(t, src, "01\n11\n01\n", 0)
}

func TestUnsigned(t *testing.T) {
	src := `
int main() {
  unsigned a = 0;
  a = a - 1;
  print_int(a > 100u); print_nl();
  print_int((int)(a >> 16)); print_nl();
  unsigned b = 7u / 2u;
  print_int((int)b); print_nl();
  return 0;
}`
	runAll(t, src, "1\n65535\n3\n", 0)
}

func TestArgv(t *testing.T) {
	src := `
int main(int argc, char **argv) {
  int i;
  print_int(argc); print_nl();
  for (i = 0; i < argc; i++) { puts(argv[i]); }
  return 0;
}`
	for _, cfg := range engines() {
		res, err := pipeline.Do(context.Background(), &pipeline.Request{Module: src, Config: cfg, Argv: []string{"prog", "alpha", "beta"}})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		want := "3\nprog\nalpha\nbeta\n"
		if res.Stdout != want {
			t.Errorf("%s: stdout = %q, want %q", cfg.Name, res.Stdout, want)
		}
	}
}

func TestFileIO(t *testing.T) {
	src := `
int main() {
  int fd = sys_open("/data/in.txt", 0, 0);
  if (fd < 0) { return 1; }
  char buf[64];
  int n = sys_read(fd, buf, 63);
  buf[n] = 0;
  sys_close(fd);
  int out = sys_open("/data/out.txt", 64 | 512 | 1, 0);
  sys_write(out, buf, n);
  sys_write(out, "!", 1);
  sys_close(out);
  print_int(n); print_nl();
  return 0;
}`
	for _, cfg := range engines() {
		cm, err := pipeline.Compile(context.Background(), &pipeline.Request{Module: src, Config: cfg})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		res, err := pipeline.Execute(context.Background(), cm, &pipeline.Request{Files: map[string][]byte{"/data/in.txt": []byte("hello file")}})
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.Stdout != "10\n" || res.ExitCode != 0 {
			t.Errorf("%s: stdout=%q code=%d", cfg.Name, res.Stdout, res.ExitCode)
		}
	}
}

func TestMultiDimArrays(t *testing.T) {
	src := `
double m[4][4];
int main() {
  int i; int j;
  for (i = 0; i < 4; i++) {
    for (j = 0; j < 4; j++) { m[i][j] = (double)(i * 4 + j); }
  }
  double tr = 0.0;
  for (i = 0; i < 4; i++) { tr += m[i][i]; }
  print_fixed(tr); print_nl();
  return 0;
}`
	runAll(t, src, "30.000000\n", 0)
}

// TestBlockScopes checks that an inner declaration hides an outer one
// only until its block closes.
func TestBlockScopes(t *testing.T) {
	src := `
int x = 100;
int main() {
  int s = x;
  int x = 1;
  int i;
  for (i = 0; i < 2; i++) {
    int x = 10 + i;
    s = s * 100 + x;
  }
  {
    int x = 7;
    { int x = 8; s = s + x; }
    s = s + x;
  }
  print_int(s); print_nl();
  print_int(x); print_nl();
  return 0;
}`
	runAll(t, src, "1001026\n1\n", 0)
}

// TestSizeofExpr checks that sizeof of an expression measures the object
// it designates, not the pointer an array, struct or string literal
// evaluates to.
func TestSizeofExpr(t *testing.T) {
	src := `
struct P { int x; int y; int z; };
int g[10];
int main() {
  int l[6];
  struct P s;
  struct P arr[10];
  print_int(sizeof(g)); print_nl();
  print_int(sizeof(l)); print_nl();
  print_int(sizeof(s)); print_nl();
  print_int(sizeof(arr[0])); print_nl();
  print_int(sizeof("abc")); print_nl();
  return 0;
}`
	runAll(t, src, "40\n24\n12\n12\n4\n", 0)
}

// TestAggregateAddressArith checks that & of an aggregate lvalue is a
// pointer to that aggregate, so arithmetic on it scales by its size.
func TestAggregateAddressArith(t *testing.T) {
	src := `
struct P { int x; int y; int z; };
int main() {
  int c = 1;
  struct P arr[10];
  print_int(&arr[5] - &arr[0]); print_nl();
  print_int((&arr[2] + 1) == &arr[3]); print_nl();
  print_int((c ? &arr[4] : &arr[2]) - &arr[0]); print_nl();
  return 0;
}`
	runAll(t, src, "5\n1\n4\n", 0)
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		`int main() { return x; }`,
		`int main() { int a = "str" }`,
		`int main() { if (1) }`,
		`int f(struct S s) { return 0; } int main() { return 0; }`,
		`int main() { break; }`,
		`int a[2] = {1, 2, 3}; int main() { return 0; }`,
		`struct S { int x; }; int main() { struct S s; struct S *p = &s; return p.x; }`,
		`int main() { int a = 0; return a->x; }`,
		`int main() { int a = 0; return a[0] + *a; }`,
		`int main() { int a = 0; return a(1); }`,
		`int f(int a) { return a; } int main() { return f(1, 2); }`,
		`int main() { return 1 = 2; }`,
		`int main() { return &main != 0; }`,
		`int f(int a) { return a; } int main() { int (*p)(int); p = f; p++; return (int)(p - f); }`,
		`int main() { double d = 2.0; return d << 1; }`,
		`int main() { double d = 2.0; return (int)~d; }`,
		`int f(int a) { return a; } int main() { return sizeof(f); }`,
	}
	for _, src := range cases {
		if _, err := minic.Compile(src, minic.ABI32); err == nil {
			t.Errorf("expected error compiling %q", src)
		}
	}
}
