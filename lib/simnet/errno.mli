(** POSIX-style error codes surfaced by simulated system calls. *)

type t =
  | EAGAIN
  | EINTR
  | EBADF
  | EINVAL
  | ENOENT
  | ESRCH
  | ECHILD
  | ENOMEM
  | EPIPE
  | ENOTCONN
  | EISCONN
  | ECONNREFUSED
  | ECONNRESET
  | ECONNABORTED
  | EADDRINUSE
  | EADDRNOTAVAIL
  | ETIMEDOUT
  | ENETUNREACH
  | EMSGSIZE
  | ENOTSOCK
  | EOPNOTSUPP

val to_string : t -> string
val pp : Format.formatter -> t -> unit
