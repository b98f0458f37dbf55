/* wait4 with the reaped child's resource usage.  OCaml's Unix has no
   getrusage, and the benchmark needs peak RSS and user+system CPU of
   every process it starts. */

#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* e2e_wait4 pid = (exit code, ru_maxrss in KiB, ru_utime s, ru_stime s);
   a child killed by signal n reports exit code 128 + n, as shells do. */
value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  struct rusage ru;
  int status = 0, err = 0;
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, 0, &ru);
    err = errno;
  } while (r < 0 && err == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  Store_field(res, 2, caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6));
  Store_field(res, 3, caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6));
  CAMLreturn(res);
}

/* Clock ticks per second, the unit of the CPU fields of /proc/<pid>/stat. */
value e2e_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}
