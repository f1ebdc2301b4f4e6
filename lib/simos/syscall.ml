(* System call requests and results.

   This is the interface between simulated programs and the simulated
   kernel, and it is also part of the checkpoint image: a process blocked in
   a system call is saved together with that pending call, and the restart
   re-issues it against the restored resources — the simulation analogue of
   Linux's restartable system calls.  Hence every constructor here has a
   Value encoding. *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Addr = Zapc_simnet.Addr
module Socket = Zapc_simnet.Socket
module Sockopt = Zapc_simnet.Sockopt
module Errno = Zapc_simnet.Errno

type shut_how = Shut_rd | Shut_wr | Shut_rdwr

type poll_req = { pfd : int; want_read : bool; want_write : bool }

type t =
  | Getpid
  | Clock_gettime
  | Nanosleep of Simtime.t
  | Alarm_set of Simtime.t
  | Alarm_cancel
  | Alarm_remaining
  | Mem_alloc of string * int
  | Mem_free of string
  | Spawn of string * Value.t  (* program name, arguments *)
  | Kill of int * Signal.t
  | Waitpid of int
  | Sock_create of Socket.kind
  | Bind of int * Addr.t
  | Listen of int * int
  | Connect of int * Addr.t
  | Accept of int
  | Send of int * string
  | Send_oob of int * char
  | Recv of int * int * Socket.recv_flags
  | Sendto of int * Addr.t * string
  | Recvfrom of int * int * Socket.recv_flags
  | Shutdown of int * shut_how
  | Close of int
  | Getsockopt of int * Sockopt.key
  | Setsockopt of int * Sockopt.key * int
  | Getsockname of int
  | Getpeername of int
  | Poll of poll_req list * Simtime.t option
  | Pipe
  | Read of int * int
  | Write of int * string
  | Fs_put of string * string  (* path, contents (whole-file write) *)
  | Fs_append of string * string
  | Fs_get of string
  | Fs_del of string
  | Fs_list of string  (* prefix *)
  | Gm_open of Addr.t  (* ip (any = this endpoint), port (0 = any) *)
  | Gm_send of int * Addr.t * string
  | Gm_recv of int
  | Log of string

type ret =
  | Rnone
  | Rint of int
  | Rnames of string list
  | Rtime of Simtime.t
  | Rdata of string
  | Rfrom of Addr.t * string
  | Raddr of Addr.t
  | Rpair of int * int
  | Raccept of int * Addr.t
  | Rpoll of (int * Socket.poll_events) list

type outcome =
  | Started  (* first activation of a program *)
  | Done_compute
  | Ret of ret
  | Err of Errno.t

(* --- pretty printing --- *)

let name = function
  | Getpid -> "getpid"
  | Clock_gettime -> "clock_gettime"
  | Nanosleep _ -> "nanosleep"
  | Alarm_set _ -> "alarm_set"
  | Alarm_cancel -> "alarm_cancel"
  | Alarm_remaining -> "alarm_remaining"
  | Mem_alloc _ -> "mem_alloc"
  | Mem_free _ -> "mem_free"
  | Spawn _ -> "spawn"
  | Kill _ -> "kill"
  | Waitpid _ -> "waitpid"
  | Sock_create _ -> "socket"
  | Bind _ -> "bind"
  | Listen _ -> "listen"
  | Connect _ -> "connect"
  | Accept _ -> "accept"
  | Send _ -> "send"
  | Send_oob _ -> "send_oob"
  | Recv _ -> "recv"
  | Sendto _ -> "sendto"
  | Recvfrom _ -> "recvfrom"
  | Shutdown _ -> "shutdown"
  | Close _ -> "close"
  | Getsockopt _ -> "getsockopt"
  | Setsockopt _ -> "setsockopt"
  | Getsockname _ -> "getsockname"
  | Getpeername _ -> "getpeername"
  | Poll _ -> "poll"
  | Pipe -> "pipe"
  | Read _ -> "read"
  | Write _ -> "write"
  | Fs_put _ -> "fs_put"
  | Fs_append _ -> "fs_append"
  | Fs_get _ -> "fs_get"
  | Fs_del _ -> "fs_del"
  | Fs_list _ -> "fs_list"
  | Gm_open _ -> "gm_open"
  | Gm_send _ -> "gm_send"
  | Gm_recv _ -> "gm_recv"
  | Log _ -> "log"

let pp ppf sc = Format.pp_print_string ppf (name sc)

(* --- Value encoding (for checkpoint images) --- *)

let flags_to_value (f : Socket.recv_flags) =
  Value.List [ Value.Bool f.peek; Value.Bool f.oob; Value.Bool f.dontwait ]

let flags_of_value v =
  match v with
  | Value.List [ Value.Bool peek; Value.Bool oob; Value.Bool dontwait ] ->
    { Socket.peek; oob; dontwait }
  | _ -> Value.decode_error "recv_flags"

let signal_to_value s = Value.Str (Signal.to_string s)

let signal_of_value v =
  match Value.to_str v with
  | "SIGSTOP" -> Signal.Sigstop
  | "SIGCONT" -> Signal.Sigcont
  | "SIGKILL" -> Signal.Sigkill
  | "SIGTERM" -> Signal.Sigterm
  | "SIGUSR1" -> Signal.Sigusr1
  | "SIGUSR2" -> Signal.Sigusr2
  | s -> Value.decode_error "unknown signal %s" s

let kind_to_value = function
  | Socket.Stream -> Value.Tag ("stream", Value.Unit)
  | Socket.Dgram -> Value.Tag ("dgram", Value.Unit)
  | Socket.Raw p -> Value.Tag ("raw", Value.Int p)

let kind_of_value v =
  match Value.to_tag v with
  | "stream", _ -> Socket.Stream
  | "dgram", _ -> Socket.Dgram
  | "raw", p -> Socket.Raw (Value.to_int p)
  | t, _ -> Value.decode_error "socket kind %s" t

let how_to_value = function
  | Shut_rd -> Value.Int 0
  | Shut_wr -> Value.Int 1
  | Shut_rdwr -> Value.Int 2

let how_of_value v =
  match Value.to_int v with
  | 0 -> Shut_rd
  | 1 -> Shut_wr
  | 2 -> Shut_rdwr
  | n -> Value.decode_error "shut_how %d" n

let v1 tagname v = Value.Tag (tagname, v)
let vi n = Value.Int n
let vs s = Value.Str s

let to_value = function
  | Getpid -> v1 "getpid" Value.Unit
  | Clock_gettime -> v1 "clock_gettime" Value.Unit
  | Nanosleep t -> v1 "nanosleep" (vi t)
  | Alarm_set t -> v1 "alarm_set" (vi t)
  | Alarm_cancel -> v1 "alarm_cancel" Value.Unit
  | Alarm_remaining -> v1 "alarm_remaining" Value.Unit
  | Mem_alloc (n, sz) -> v1 "mem_alloc" (Value.List [ vs n; vi sz ])
  | Mem_free n -> v1 "mem_free" (vs n)
  | Spawn (prog, args) -> v1 "spawn" (Value.List [ vs prog; args ])
  | Kill (pid, sg) -> v1 "kill" (Value.List [ vi pid; signal_to_value sg ])
  | Waitpid pid -> v1 "waitpid" (vi pid)
  | Sock_create k -> v1 "socket" (kind_to_value k)
  | Bind (fd, a) -> v1 "bind" (Value.List [ vi fd; Addr.to_value a ])
  | Listen (fd, n) -> v1 "listen" (Value.List [ vi fd; vi n ])
  | Connect (fd, a) -> v1 "connect" (Value.List [ vi fd; Addr.to_value a ])
  | Accept fd -> v1 "accept" (vi fd)
  | Send (fd, d) -> v1 "send" (Value.List [ vi fd; vs d ])
  | Send_oob (fd, c) -> v1 "send_oob" (Value.List [ vi fd; vi (Char.code c) ])
  | Recv (fd, n, f) -> v1 "recv" (Value.List [ vi fd; vi n; flags_to_value f ])
  | Sendto (fd, a, d) -> v1 "sendto" (Value.List [ vi fd; Addr.to_value a; vs d ])
  | Recvfrom (fd, n, f) -> v1 "recvfrom" (Value.List [ vi fd; vi n; flags_to_value f ])
  | Shutdown (fd, how) -> v1 "shutdown" (Value.List [ vi fd; how_to_value how ])
  | Close fd -> v1 "close" (vi fd)
  | Getsockopt (fd, k) -> v1 "getsockopt" (Value.List [ vi fd; vs (Sockopt.key_name k) ])
  | Setsockopt (fd, k, v) ->
    v1 "setsockopt" (Value.List [ vi fd; vs (Sockopt.key_name k); vi v ])
  | Getsockname fd -> v1 "getsockname" (vi fd)
  | Getpeername fd -> v1 "getpeername" (vi fd)
  | Poll (reqs, tmo) ->
    let req_v r =
      Value.List [ vi r.pfd; Value.Bool r.want_read; Value.Bool r.want_write ]
    in
    v1 "poll" (Value.List [ Value.list req_v reqs; Value.option vi tmo ])
  | Pipe -> v1 "pipe" Value.Unit
  | Read (fd, n) -> v1 "read" (Value.List [ vi fd; vi n ])
  | Write (fd, d) -> v1 "write" (Value.List [ vi fd; vs d ])
  | Fs_put (path, d) -> v1 "fs_put" (Value.List [ vs path; vs d ])
  | Fs_append (path, d) -> v1 "fs_append" (Value.List [ vs path; vs d ])
  | Fs_get path -> v1 "fs_get" (vs path)
  | Fs_del path -> v1 "fs_del" (vs path)
  | Fs_list prefix -> v1 "fs_list" (vs prefix)
  | Gm_open a -> v1 "gm_open" (Addr.to_value a)
  | Gm_send (fd, a, d) -> v1 "gm_send" (Value.List [ vi fd; Addr.to_value a; vs d ])
  | Gm_recv fd -> v1 "gm_recv" (vi fd)
  | Log m -> v1 "log" (vs m)

let of_value v =
  let tagname, body = Value.to_tag v in
  let two f = Value.to_pair (fun x -> x) (fun y -> y) f in
  match tagname with
  | "getpid" -> Getpid
  | "clock_gettime" -> Clock_gettime
  | "nanosleep" -> Nanosleep (Value.to_int body)
  | "alarm_set" -> Alarm_set (Value.to_int body)
  | "alarm_cancel" -> Alarm_cancel
  | "alarm_remaining" -> Alarm_remaining
  | "mem_alloc" ->
    let a, b = two body in
    Mem_alloc (Value.to_str a, Value.to_int b)
  | "mem_free" -> Mem_free (Value.to_str body)
  | "spawn" ->
    let a, b = two body in
    Spawn (Value.to_str a, b)
  | "kill" ->
    let a, b = two body in
    Kill (Value.to_int a, signal_of_value b)
  | "waitpid" -> Waitpid (Value.to_int body)
  | "socket" -> Sock_create (kind_of_value body)
  | "bind" ->
    let a, b = two body in
    Bind (Value.to_int a, Addr.of_value b)
  | "listen" ->
    let a, b = two body in
    Listen (Value.to_int a, Value.to_int b)
  | "connect" ->
    let a, b = two body in
    Connect (Value.to_int a, Addr.of_value b)
  | "accept" -> Accept (Value.to_int body)
  | "send" ->
    let a, b = two body in
    Send (Value.to_int a, Value.to_str b)
  | "send_oob" ->
    let a, b = two body in
    Send_oob (Value.to_int a, Char.chr (Value.to_int b land 0xff))
  | "recv" ->
    (match body with
     | Value.List [ a; b; c ] -> Recv (Value.to_int a, Value.to_int b, flags_of_value c)
     | _ -> Value.decode_error "recv")
  | "sendto" ->
    (match body with
     | Value.List [ a; b; c ] -> Sendto (Value.to_int a, Addr.of_value b, Value.to_str c)
     | _ -> Value.decode_error "sendto")
  | "recvfrom" ->
    (match body with
     | Value.List [ a; b; c ] ->
       Recvfrom (Value.to_int a, Value.to_int b, flags_of_value c)
     | _ -> Value.decode_error "recvfrom")
  | "shutdown" ->
    let a, b = two body in
    Shutdown (Value.to_int a, how_of_value b)
  | "close" -> Close (Value.to_int body)
  | "getsockopt" ->
    let a, b = two body in
    Getsockopt (Value.to_int a, Sockopt.key_of_name (Value.to_str b))
  | "setsockopt" ->
    (match body with
     | Value.List [ a; b; c ] ->
       Setsockopt (Value.to_int a, Sockopt.key_of_name (Value.to_str b), Value.to_int c)
     | _ -> Value.decode_error "setsockopt")
  | "getsockname" -> Getsockname (Value.to_int body)
  | "getpeername" -> Getpeername (Value.to_int body)
  | "poll" ->
    (match body with
     | Value.List [ reqs; tmo ] ->
       let req_of v =
         match v with
         | Value.List [ a; b; c ] ->
           { pfd = Value.to_int a; want_read = Value.to_bool b; want_write = Value.to_bool c }
         | _ -> Value.decode_error "poll req"
       in
       Poll (Value.to_list req_of reqs, Value.to_option Value.to_int tmo)
     | _ -> Value.decode_error "poll")
  | "pipe" -> Pipe
  | "read" ->
    let a, b = two body in
    Read (Value.to_int a, Value.to_int b)
  | "write" ->
    let a, b = two body in
    Write (Value.to_int a, Value.to_str b)
  | "fs_put" ->
    let a, b = two body in
    Fs_put (Value.to_str a, Value.to_str b)
  | "fs_append" ->
    let a, b = two body in
    Fs_append (Value.to_str a, Value.to_str b)
  | "fs_get" -> Fs_get (Value.to_str body)
  | "fs_del" -> Fs_del (Value.to_str body)
  | "fs_list" -> Fs_list (Value.to_str body)
  | "gm_open" -> Gm_open (Addr.of_value body)
  | "gm_send" ->
    (match body with
     | Value.List [ fd; a; d ] -> Gm_send (Value.to_int fd, Addr.of_value a, Value.to_str d)
     | _ -> Value.decode_error "gm_send")
  | "gm_recv" -> Gm_recv (Value.to_int body)
  | "log" -> Log (Value.to_str body)
  | t -> Value.decode_error "unknown syscall %s" t

let ret_to_value = function
  | Rnone -> v1 "rnone" Value.Unit
  | Rint n -> v1 "rint" (vi n)
  | Rnames names -> v1 "rnames" (Value.list Value.str names)
  | Rtime t -> v1 "rtime" (vi t)
  | Rdata d -> v1 "rdata" (vs d)
  | Rfrom (a, d) -> v1 "rfrom" (Value.List [ Addr.to_value a; vs d ])
  | Raddr a -> v1 "raddr" (Addr.to_value a)
  | Rpair (a, b) -> v1 "rpair" (Value.List [ vi a; vi b ])
  | Raccept (fd, a) -> v1 "raccept" (Value.List [ vi fd; Addr.to_value a ])
  | Rpoll evs ->
    let ev_v (fd, (e : Socket.poll_events)) =
      Value.List
        [ vi fd; Value.Bool e.readable; Value.Bool e.writable; Value.Bool e.pollerr;
          Value.Bool e.hangup ]
    in
    v1 "rpoll" (Value.list ev_v evs)

let ret_of_value v =
  let tagname, body = Value.to_tag v in
  match tagname with
  | "rnone" -> Rnone
  | "rint" -> Rint (Value.to_int body)
  | "rnames" -> Rnames (Value.to_list Value.to_str body)
  | "rtime" -> Rtime (Value.to_int body)
  | "rdata" -> Rdata (Value.to_str body)
  | "rfrom" ->
    (match body with
     | Value.List [ a; d ] -> Rfrom (Addr.of_value a, Value.to_str d)
     | _ -> Value.decode_error "rfrom")
  | "raddr" -> Raddr (Addr.of_value body)
  | "rpair" ->
    (match body with
     | Value.List [ a; b ] -> Rpair (Value.to_int a, Value.to_int b)
     | _ -> Value.decode_error "rpair")
  | "raccept" ->
    (match body with
     | Value.List [ fd; a ] -> Raccept (Value.to_int fd, Addr.of_value a)
     | _ -> Value.decode_error "raccept")
  | "rpoll" ->
    let ev_of v =
      match v with
      | Value.List [ fd; r; w; e; h ] ->
        ( Value.to_int fd,
          { Socket.readable = Value.to_bool r; writable = Value.to_bool w;
            pollerr = Value.to_bool e; hangup = Value.to_bool h } )
      | _ -> Value.decode_error "rpoll ev"
    in
    Rpoll (Value.to_list ev_of body)
  | t -> Value.decode_error "unknown ret %s" t

let errno_to_value e = Value.Str (Errno.to_string e)

let errno_of_value v =
  let s = Value.to_str v in
  let all =
    [ Errno.EAGAIN; EINTR; EBADF; EINVAL; ENOENT; ESRCH; ECHILD; ENOMEM; EPIPE; ENOTCONN;
      EISCONN; ECONNREFUSED; ECONNRESET; ECONNABORTED; EADDRINUSE; EADDRNOTAVAIL; ETIMEDOUT;
      ENETUNREACH; EMSGSIZE; ENOTSOCK; EOPNOTSUPP ]
  in
  match List.find_opt (fun e -> String.equal (Errno.to_string e) s) all with
  | Some e -> e
  | None -> Value.decode_error "unknown errno %s" s

let outcome_to_value = function
  | Started -> v1 "started" Value.Unit
  | Done_compute -> v1 "done_compute" Value.Unit
  | Ret r -> v1 "ret" (ret_to_value r)
  | Err e -> v1 "err" (errno_to_value e)

let outcome_of_value v =
  let tagname, body = Value.to_tag v in
  match tagname with
  | "started" -> Started
  | "done_compute" -> Done_compute
  | "ret" -> Ret (ret_of_value body)
  | "err" -> Err (errno_of_value body)
  | t -> Value.decode_error "unknown outcome %s" t
