(* Measurement context shared by every workload: wall-clock timing of the
   set-up and measured parts, output checks, virtual-time samples, and —
   in the traced run — a per-layer ledger of host time, engine events and
   allocation.

   The ledger has two sources.  The engine profiler ([Params.profile_engine])
   charges every event callback to its label, and labels map to layers by
   prefix.  Work that is not an engine event (client-state polling, storage
   read-back, image decode, trace export) is charged by the benchmark's own
   spans around its calls into a layer.  Spans around calls that drive the
   engine charge their time not covered by labels to [sim], the engine
   loop itself. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics

let wall () = Unix.gettimeofday ()
let cpu () = Sys.time ()

(* Allocated words so far; deterministic for a deterministic program. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* --- statistics ------------------------------------------------------ *)

let sorted l = List.sort compare l

(* Nearest-rank percentile over the exact samples. *)
let percentile q = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Median, averaging the two middle samples of an even count. *)
let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list (sorted l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* --- layers ---------------------------------------------------------- *)

(* Engine-profile labels grouped into layers by prefix. *)
let layer_of_label label =
  let pre prefix = String.starts_with ~prefix label in
  if pre "os." then Some "simos"
  else if pre "net." then Some "simnet"
  else if pre "agent." then Some "zapc.agent"
  else if pre "mgr." || pre "relay." || pre "ctrl." then Some "zapc.ctrl"
  else if pre "storage." then Some "zapc.storage"
  else if pre "periodic." || pre "sup." then Some "zapc.sup"
  else if pre "fault." then Some "faultsim"
  else None

type acc = { mutable a_host : float; mutable a_events : int }

type t = {
  traced : bool;
  mutable engine : Engine.t option;
  mutable setup_s : float;
  mutable host_s : float;
  mutable host_cpu_s : float;
  (* checks *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  (* named samples: virtual metrics and benchmark-timed host costs *)
  samples : (string, float list) Hashtbl.t;
  (* traced-run ledger *)
  ledger : (string, acc) Hashtbl.t;
  mutable depth : int;
  mutable measuring : bool;
  mutable prof0 : (string * int * float) list;
  mutable events : int;
  mutable alloc : float;
  mutable majors : int;
  mutable unlabeled_s : float;
}

let create ~traced =
  { traced; engine = None; setup_s = 0.0; host_s = 0.0; host_cpu_s = 0.0;
    attempted = 0; failed = 0; failures = [];
    samples = Hashtbl.create 32; ledger = Hashtbl.create 16; depth = 0;
    measuring = false; prof0 = []; events = 0; alloc = 0.0; majors = 0;
    unlabeled_s = 0.0 }

let acc t layer =
  match Hashtbl.find_opt t.ledger layer with
  | Some a -> a
  | None ->
    let a = { a_host = 0.0; a_events = 0 } in
    Hashtbl.replace t.ledger layer a;
    a

let layer_host t layer = (acc t layer).a_host
let layer_events t layer = (acc t layer).a_events

let add t name v =
  let l = Option.value ~default:[] (Hashtbl.find_opt t.samples name) in
  Hashtbl.replace t.samples name (v :: l)

let set t name v = Hashtbl.replace t.samples name [ v ]
let values t name = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.samples name))

(* Per-pod statistics of a checkpoint: network-state time, socket count,
   and the full image size (for a delta write, the size a full image would
   have had) beside the delta bytes actually written. *)
let ckpt_stats t (r : Zapc.Manager.op_result) =
  let socks = ref 0 in
  List.iter
    (fun (_, (st : Zapc.Protocol.agent_stats)) ->
      add t "netckpt.net_ms" (Simtime.to_ms st.Zapc.Protocol.st_net_time);
      socks := !socks + st.st_sockets;
      if st.st_full_bytes > 0 then begin
        add t "ckpt.image_bytes" (float_of_int st.st_full_bytes);
        add t "ckpt.delta_bytes" (float_of_int st.st_image_bytes);
        add t "ckpt.delta_full_bytes" (float_of_int st.st_full_bytes)
      end
      else add t "ckpt.image_bytes" (float_of_int st.st_image_bytes))
    r.Zapc.Manager.r_stats;
  add t "netckpt.sockets" (float_of_int !socks)

let restart_stats t (r : Zapc.Manager.op_result) =
  List.iter
    (fun (_, (st : Zapc.Protocol.agent_stats)) ->
      add t "restart.conn_ms" (Simtime.to_ms st.Zapc.Protocol.st_conn_time))
    r.Zapc.Manager.r_stats

(* --- checks ---------------------------------------------------------- *)

(* Abort the pass: the run reports it as failed. *)
let fail fmt = Printf.ksprintf failwith fmt

let check t what ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures
  end

(* Count [attempted] operations of which [failed] did not succeed. *)
let count t what ~attempted ~failed =
  t.attempted <- t.attempted + attempted;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    t.failures <- Printf.sprintf "%s: %d of %d failed" what failed attempted :: t.failures
  end

(* ZapC operations the control plane ran on its own (periodic epochs,
   supervised recovery, migration phases), counted from the Manager's
   [mgr.*.started] / [mgr.*.failed] counters. *)
let count_mgr_ops t reg =
  List.iter
    (fun op ->
      let c s = Metrics.counter reg (Printf.sprintf "mgr.%s.%s" op s) in
      count t ("mgr." ^ op) ~attempted:(c "started") ~failed:(c "failed"))
    [ "ckpt"; "restart"; "mig" ]

(* --- timing ---------------------------------------------------------- *)

(* The profile of labelled engine events since [prof0]. *)
let profile_delta t =
  match t.engine with
  | None -> []
  | Some e ->
    let before = t.prof0 in
    List.map
      (fun (l, n, s) ->
        match List.find_opt (fun (l', _, _) -> l' = l) before with
        | Some (_, n0, s0) -> (l, n - n0, s -. s0)
        | None -> (l, n, s))
      (Engine.profile e)

let labelled_host t =
  List.fold_left (fun a (_, _, s) -> a +. s) 0.0 (profile_delta t)

(* A benchmark span around a call into [layer] that runs no engine event. *)
let span t ~layer f =
  if not (t.traced && t.measuring) || t.depth > 0 then f ()
  else begin
    t.depth <- 1;
    let c0 = cpu () in
    let r = Fun.protect ~finally:(fun () -> t.depth <- 0) f in
    let a = acc t layer in
    a.a_host <- a.a_host +. (cpu () -. c0);
    r
  end

(* A benchmark span around a call that drives the engine: labelled event
   time goes to the labels' layers (read from the profiler at the end of
   the measured part); the rest of the span goes to [layer] — [sim], the
   engine loop, for a plain run. *)
let drive ?(layer = "sim") t f =
  if not (t.traced && t.measuring) || t.depth > 0 then f ()
  else begin
    t.depth <- 1;
    let c0 = cpu () in
    let l0 = labelled_host t in
    let r = Fun.protect ~finally:(fun () -> t.depth <- 0) f in
    let a = acc t layer in
    a.a_host <- a.a_host +. (cpu () -. c0) -. (labelled_host t -. l0);
    r
  end

(* Host milliseconds of one ZapC operation call, kept as a sample.  The
   Manager does part of an operation synchronously in the call, outside any
   engine event, so the span's unlabelled time is the control plane's. *)
let op t name f =
  let c0 = wall () in
  let r = drive ~layer:"zapc.ctrl" t f in
  add t name ((wall () -. c0) *. 1000.0);
  r

(* Set-up and measured part each start from a compacted heap, so earlier
   iterations' garbage does not land in their time. *)
let setup t f =
  Gc.compact ();
  let w0 = wall () in
  let r = f () in
  t.setup_s <- wall () -. w0;
  r

(* A workload: [setup] builds, launches and warms up; [run] is the measured
   part; [finish] checks the outputs and records the virtual-time results;
   [teardown] destroys the pods (the pod registry is process-wide).  When
   [sized], [~half:true] halves the size the workload's restart cost grows
   with, for the traced run's size exponent. *)
module type WORKLOAD = sig
  type env

  val name : string
  val sized : bool
  val setup : t -> seed:int -> half:bool -> env
  val cluster : env -> Zapc.Cluster.t
  val run : t -> env -> unit
  val finish : t -> env -> unit
  val teardown : env -> unit
end

(* The measured part of one iteration.  [engine] is the cluster's engine,
   whose event counter and (traced) profiler the ledger reads. *)
let measure t ~engine f =
  Gc.compact ();
  t.engine <- Some engine;
  t.prof0 <- Engine.profile engine;
  let ev0 = Engine.events_processed engine in
  let gc0 = Gc.quick_stat () in
  let a0 = alloc_words () in
  let c0 = cpu () in
  let w0 = wall () in
  t.measuring <- true;
  let r = Fun.protect ~finally:(fun () -> t.measuring <- false) f in
  t.host_s <- wall () -. w0;
  t.host_cpu_s <- cpu () -. c0;
  t.alloc <- alloc_words () -. a0;
  t.majors <- (Gc.quick_stat ()).Gc.major_collections - gc0.Gc.major_collections;
  t.events <- Engine.events_processed engine - ev0;
  if t.traced then
    List.iter
      (fun (l, n, s) ->
        match layer_of_label l with
        | Some layer ->
          let a = acc t layer in
          a.a_host <- a.a_host +. s;
          a.a_events <- a.a_events + n
        | None -> t.unlabeled_s <- t.unlabeled_s +. s)
      (profile_delta t);
  (* the engine holds the whole cluster: keep no reference past the pass *)
  t.engine <- None;
  t.prof0 <- [];
  r

(* Traced host time covered by no layer label and no benchmark span. *)
let unattributed t =
  let covered = Hashtbl.fold (fun _ a s -> s +. a.a_host) t.ledger 0.0 in
  Float.max 0.0 (t.host_cpu_s -. covered)
