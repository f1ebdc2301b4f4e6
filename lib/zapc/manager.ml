(* The ZapC Manager: the front-end client that orchestrates coordinated
   checkpoint and restart (Figures 1 and 3).

   Checkpoint: broadcast 'checkpoint', gather the meta-data from every
   Agent, broadcast 'continue' (the single synchronization point), gather
   the completion statuses.  Restart: merge the meta-data into a new
   connectivity map (substituting the destination addresses), derive the
   connect/accept schedule, broadcast 'restart' with the per-pod
   instructions, gather statuses.

   The Manager keeps its Agent channels open for the whole operation; a
   broken channel aborts the operation on both sides. *)

module Simtime = Zapc_sim.Simtime
module Engine = Zapc_sim.Engine
module Metrics = Zapc_obs.Metrics
module Span = Zapc_obs.Span
module Critpath = Zapc_obs.Critpath
module Addr = Zapc_simnet.Addr
module Meta = Zapc_netckpt.Meta
module Sock_state = Zapc_netckpt.Sock_state
module Image = Zapc_ckpt.Image
module Value = Zapc_codec.Value
module Wire = Zapc_codec.Wire
module Pod_ckpt = Zapc_ckpt.Pod_ckpt

type ckpt_item = {
  ci_node : int;
  ci_pod : int;
  ci_dest : Protocol.uri;
}

type restart_item = {
  ri_node : int;
  ri_pod : int;
  ri_uri : Protocol.uri;
}

type op_result = {
  r_ok : bool;
  r_failure : Protocol.failure option;  (* None iff r_ok *)
  r_detail : string;  (* human-readable rendering of r_failure *)
  r_duration : Simtime.t;  (* invocation -> all Agents reported done *)
  r_stats : (int * Protocol.agent_stats) list;  (* per pod *)
  r_metas : Meta.pod_meta list;
}

(* cached per-pod facts learned during checkpoints, enabling restarts of
   streamed images (whose bytes the Manager never sees) *)
type pod_info = { pi_vip : Addr.ip; pi_name : string; pi_meta : Meta.pod_meta }

type pending = {
  mutable p_wait_meta : int list;  (* pods still to report meta *)
  mutable p_wait_done : int list;
  mutable p_stats : (int * Protocol.agent_stats) list;
  mutable p_metas : Meta.pod_meta list;
  mutable p_failed : Protocol.failure option;
  mutable p_arm : int;
  (* phase-timeout keepalive: each pre-copy round report bumps this, killing
     the armed watchdog and re-arming from now (a live migration's copy
     phase legitimately outlives one [phase_timeout] as long as rounds keep
     landing) *)
  p_items : (int * int) list;  (* (pod, node) *)
  p_started : Simtime.t;
  p_kind : [ `Checkpoint | `Restart | `Mig_copy | `Mig_restore ];
  p_gen : int;  (* guards stale timeout closures *)
  p_done : op_result -> unit;
}

(* One live migration spans two pendings (copy phase, then restore phase);
   this is the state that outlives them.  [mg_committed] flips when the
   destination's M_migrate_done lands: from that instant the destination
   copy is authoritative and losing the source is NOT a failure. *)
type mig_state = {
  mg_pod : int;
  mg_src : int;
  mg_dest : int;
  mg_started : Simtime.t;
  mutable mg_rounds : int;
  mutable mg_forced : bool;
  mutable mg_committed : bool;
  mg_gen : int;
  mg_done : op_result -> unit;
}

type t = {
  engine : Engine.t;
  params : Params.t;
  storage : Storage.t;
  channels : (int, Protocol.channel) Hashtbl.t;
  (* node -> direct channel: every node in the flat topology, only the
     manager's direct children once a tree is installed *)
  routes : (int, int) Hashtbl.t;
  (* hierarchical coordination: node -> the direct child whose subtree
     contains it (every tree node appears, children map to themselves);
     empty in the flat topology, where sends go straight to [channels] *)
  edges : (int, Protocol.channel) Hashtbl.t;
  (* tree mode: node -> the channel its PARENT uses to reach it, for every
     node — lets fault injection sever (or hang) any node's uplink even
     when the manager is not that parent *)
  out_buf : (int, (int * Protocol.to_agent) list) Hashtbl.t;
  (* per-first-hop command bundle under assembly (items reversed); drained
     by a same-instant flush so one broadcast loop becomes one A_batch per
     direct child *)
  mutable out_flush : bool;  (* a flush event is already scheduled *)
  mutable proc_free : Simtime.t;
  (* serial control-plane CPU: the instant the manager finishes processing
     its current message backlog (Params.ctrl_proc per message) *)
  alloc_rip : int -> Addr.ip;
  infos : (int, pod_info) Hashtbl.t;
  metrics : Metrics.t;
  mutable trace : Trace.t option;
  mutable current : pending option;
  mutable mig : mig_state option;  (* live migration in progress *)
  mutable gen : int;  (* bumped per operation *)
  mutable last_critpath : (string * Critpath.report) option;
  (* (operation span name, analysis) of the most recent successful op *)
  mutable on_pong : node:int -> seq:int -> unit;  (* supervisor heartbeat sink *)
  mutable on_migrated : pod:int -> src:int -> dest:int -> unit;
  (* fired at a successful handoff, before the caller's on_done: watchers
     (Supervisor) observe the pod's new home atomically with completion *)
}

let create ?metrics ~engine ~params ~storage ~alloc_rip () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  { engine; params; storage; channels = Hashtbl.create 8;
    routes = Hashtbl.create 8; edges = Hashtbl.create 8;
    out_buf = Hashtbl.create 8; out_flush = false; proc_free = Simtime.zero;
    alloc_rip;
    infos = Hashtbl.create 16; metrics; trace = None; current = None;
    mig = None; gen = 0; last_critpath = None;
    on_pong = (fun ~node:_ ~seq:_ -> ());
    on_migrated = (fun ~pod:_ ~src:_ ~dest:_ -> ()) }

let set_trace t tr = t.trace <- Some tr
let metrics t = t.metrics

let trace t what =
  match t.trace with
  | Some tr -> Trace.record tr ~time:(Engine.now t.engine) ~pod:(-1) what
  | None -> ()

(* Manager-scope spans (pod -1): the whole operation plus the sync window
   (broadcast -> 'continue'), whose overlap with the agents' standalone
   spans is the Figure-2 story. *)
let span_begin t ?op ?parent name =
  match t.trace with
  | Some tr ->
    Trace.span_begin tr ~time:(Engine.now t.engine) ?op ?parent ~pod:(-1) name
  | None -> ()

(* As span_begin, returning the span id (-1 without a trace) so it can ride
   as [Protocol.trace_ctx.tc_parent] and parent the agents' spans. *)
let span_begin_id t ?op ?parent name =
  match t.trace with
  | Some tr ->
    Trace.span_begin_id tr ~time:(Engine.now t.engine) ?op ?parent ~pod:(-1) name
  | None -> -1

let ctx_for t span_id =
  if span_id >= 0 then Some { Protocol.tc_op = t.gen; tc_parent = span_id }
  else None

let span_end t name =
  match t.trace with
  | Some tr -> Trace.span_end tr ~time:(Engine.now t.engine) ~pod:(-1) name
  | None -> ()

let channel_to t node =
  match Hashtbl.find_opt t.channels node with
  | Some ch -> ch
  | None -> invalid_arg (Printf.sprintf "Manager: no agent channel for node %d" node)

(* Serial control-plane CPU: every message the manager sends or receives
   costs [ctrl_proc] of a single server — the per-message overhead that
   turns N direct channels into a root bottleneck at cluster scale (a tree
   batch counts as one message).  Zero cost (the default) runs [fn] inline,
   keeping the flat topology bit-identical to the uncosted behaviour. *)
let proc t fn =
  if t.params.Params.ctrl_proc = Simtime.zero then fn ()
  else begin
    let now = Engine.now t.engine in
    let start = if Simtime.compare t.proc_free now > 0 then t.proc_free else now in
    let fin = Simtime.add start t.params.Params.ctrl_proc in
    t.proc_free <- fin;
    Engine.schedule_at t.engine ~label:"mgr.proc" ~at:fin fn
  end

let send_direct t ch msg =
  proc t (fun () ->
      Control.send_down ch ~bytes:(Protocol.to_agent_bytes msg) msg)

(* Drain the per-hop command bundles: each direct child gets its subtree's
   commands as ONE [A_batch] message (one proc slot, one frame), fanned out
   further by the relays.  Hops are flushed in node order so seeded runs
   stay deterministic. *)
let flush_out t =
  t.out_flush <- false;
  let hops =
    Hashtbl.fold (fun hop items acc -> (hop, List.rev items) :: acc) t.out_buf []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  Hashtbl.reset t.out_buf;
  List.iter
    (fun (hop, items) ->
      match Hashtbl.find_opt t.channels hop with
      | Some ch when not (Control.is_broken ch) ->
        Metrics.incr t.metrics "mgr.tree.down_batches";
        Metrics.add t.metrics "mgr.tree.down_msgs" (List.length items);
        send_direct t ch (Protocol.A_batch items)
      | Some _ | None -> ())
    hops

let enqueue_routed t hop node msg =
  let prev =
    match Hashtbl.find_opt t.out_buf hop with Some l -> l | None -> []
  in
  Hashtbl.replace t.out_buf hop ((node, msg) :: prev);
  if not t.out_flush then begin
    t.out_flush <- true;
    (* same-instant flush: every send of the current broadcast loop lands
       in this bundle *)
    Engine.schedule t.engine ~label:"mgr.fanout" ~delay:Simtime.zero (fun () ->
        flush_out t)
  end

(* [strict] raises on a missing channel (operation sends assume the wiring
   exists); non-strict sends vanish silently, which is what the abort and
   heartbeat paths want when a node is already gone. *)
let send_via t ~strict node msg =
  match Hashtbl.find_opt t.routes node with
  | Some hop ->
    (match Hashtbl.find_opt t.channels hop with
     | Some ch when not (Control.is_broken ch) -> enqueue_routed t hop node msg
     | Some _ -> ()
     | None -> if strict then ignore (channel_to t hop))
  | None ->
    if strict then send_direct t (channel_to t node) msg
    else (
      match Hashtbl.find_opt t.channels node with
      | Some ch when not (Control.is_broken ch) -> send_direct t ch msg
      | Some _ | None -> ())

let send t node msg = send_via t ~strict:true node msg
let send_opt t node msg = send_via t ~strict:false node msg

let remember_pod t ~pod_id ~name ~vip meta =
  Hashtbl.replace t.infos pod_id { pi_vip = vip; pi_name = name; pi_meta = meta }

let finish t result =
  match t.current with
  | None -> ()
  | Some p ->
    t.current <- None;
    let prefix, opname =
      match p.p_kind with
      | `Checkpoint -> "mgr.ckpt", "ckpt_op"
      | `Restart -> "mgr.restart", "restart_op"
      | `Mig_copy -> "mgr.mig.copy", "mig_copy"
      | `Mig_restore -> "mgr.mig.restore", "mig_restore"
    in
    Metrics.incr t.metrics (prefix ^ if result.r_ok then ".ok" else ".failed");
    Metrics.observe t.metrics (prefix ^ ".duration_ms")
      (Simtime.to_ms result.r_duration);
    (* bytes-written histograms (checkpoint only: restart stats report
       restored sizes, not writes) *)
    if p.p_kind = `Checkpoint then
      List.iter
        (fun ((_pod : int), (st : Protocol.agent_stats)) ->
          Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
            "ckpt.image_bytes"
            (float_of_int st.Protocol.st_image_bytes);
          Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
            "netckpt.bytes"
            (float_of_int st.Protocol.st_net_bytes);
          (* delta writes: st_full_bytes carries the size a full checkpoint
             would have written at the same instant *)
          if st.Protocol.st_full_bytes > 0 then begin
            Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
              "ckpt.delta_bytes"
              (float_of_int st.Protocol.st_image_bytes);
            Metrics.observe t.metrics "ckpt.delta_ratio"
              (float_of_int st.Protocol.st_image_bytes
              /. float_of_int st.Protocol.st_full_bytes)
          end)
        result.r_stats;
    span_end t "mgr_sync";
    span_end t opname;
    (* Critical-path attribution: with the op span now closed, walk the
       spans of this operation (sp_op = generation — the agents' spans
       carry it via the wire trace context) and report which phase
       dominated the end-to-end latency. *)
    (match t.trace with
     | Some tr when result.r_ok ->
       let sps =
         List.filter
           (fun (s : Span.span) -> s.Span.sp_op = p.p_gen)
           (Span.spans (Trace.recorder tr))
       in
       let rep =
         Critpath.analyze ~spans:sps ~t0:p.p_started
           ~t1:(Engine.now t.engine)
       in
       if rep.Critpath.cp_dominant <> "" then begin
         List.iter
           (fun (name, d) ->
             Metrics.observe t.metrics
               (Printf.sprintf "mgr.critpath.%s_ms" name)
               (Simtime.to_ms d))
           rep.Critpath.cp_phases;
         Metrics.incr t.metrics
           (Printf.sprintf "mgr.critpath.dominant.%s" rep.Critpath.cp_dominant);
         t.last_critpath <- Some (opname, rep)
       end
     | Some _ | None -> ());
    p.p_done result

let last_critpath t = t.last_critpath

let fail_op t failure =
  match t.current with
  | None -> ()
  | Some p ->
    if p.p_failed = None then begin
      p.p_failed <- Some failure;
      (* the flight recorder trips on this instant *)
      let kind =
        match p.p_kind with
        | `Checkpoint -> "ckpt"
        | `Restart -> "restart"
        | `Mig_copy -> "mig_copy"
        | `Mig_restore -> "mig_restore"
      in
      trace t (Printf.sprintf "op_failed:%s" kind);
      (* abort everyone still involved; skip nodes whose channel (or route)
         is gone — the abort path must itself survive a broken channel *)
      List.iter
        (fun (pod, node) -> send_opt t node (Protocol.A_abort { pod_id = pod }))
        p.p_items;
      finish t
        { r_ok = false; r_failure = Some failure;
          r_detail = Protocol.failure_to_string failure;
          r_duration = Simtime.sub (Engine.now t.engine) p.p_started;
          r_stats = p.p_stats; r_metas = p.p_metas }
    end

(* Per-phase watchdog (paper section 4 only aborts on *broken* channels; a
   hung-but-connected Agent would stall the protocol forever without this).
   The generation counter keeps a stale timer from touching a later
   operation that reuses pod ids. *)
let arm_phase_timeout t (p : pending) (phase : Protocol.phase) =
  if Simtime.compare t.params.phase_timeout Simtime.zero > 0 then begin
    let arm = p.p_arm in
    Engine.schedule_at t.engine ~label:"mgr.timeout"
      ~at:(Simtime.add (Engine.now t.engine) t.params.phase_timeout)
      (fun () ->
        match t.current with
        | Some p' when p' == p && p'.p_gen = p.p_gen && p'.p_arm = arm ->
          let waiting =
            match phase with
            | Protocol.Ph_meta -> p'.p_wait_meta
            | Protocol.Ph_done -> p'.p_wait_done
          in
          (* only fire if the guarded phase is still incomplete *)
          let stuck =
            match phase with
            | Protocol.Ph_meta -> p'.p_wait_meta <> []
            | Protocol.Ph_done -> p'.p_wait_done <> []
          in
          if stuck then begin
            Metrics.incr t.metrics "mgr.phase_timeouts";
            trace t (Printf.sprintf "phase_timeout:%s" (Protocol.phase_to_string phase));
            fail_op t (Protocol.F_timeout { phase; waiting })
          end
        | Some _ | None -> ())
  end

(* A broken channel normally fails the operation outright.  One exception:
   losing the *source* during a migration's copy phase is only fatal if the
   destination has not committed.  The break and the destination's
   M_migrate_done race on independent channels, so wait a few control
   latencies for an in-flight commit to land before deciding.  In tree mode
   the same logic serves breaks the manager hears about second-hand
   ([M_subtree_down] from a relay whose child edge severed). *)
let channel_broke t ~node =
  match t.mig, t.current with
  | Some mg, Some p when p.p_kind = `Mig_copy && node = mg.mg_src ->
    let gen = p.p_gen in
    trace t "mig_src_break";
    Engine.schedule_at t.engine ~label:"mgr.mig_grace"
      ~at:(Simtime.add (Engine.now t.engine) (5 * t.params.ctrl_latency))
      (fun () ->
        match t.mig, t.current with
        | Some mg', Some p' when mg' == mg && p' == p && p'.p_gen = gen
                                 && mg.mg_gen = gen ->
          if mg.mg_committed then begin
            (* the destination copy already won: the pod survives there *)
            Metrics.incr t.metrics "mgr.mig.src_lost_after_commit";
            trace t
              (Printf.sprintf "mig_src_lost:pod%d->node%d" mg.mg_pod mg.mg_dest);
            p.p_wait_meta <- [];
            p.p_wait_done <- [];
            finish t
              { r_ok = true; r_failure = None; r_detail = "";
                r_duration = Simtime.sub (Engine.now t.engine) p.p_started;
                r_stats = p.p_stats; r_metas = p.p_metas }
          end
          else fail_op t (Protocol.F_channel { node })
        | _ -> ())
  | _ -> fail_op t (Protocol.F_channel { node })

let rec on_agent_message t (msg : Protocol.to_manager) =
  (* heartbeat replies are independent of any running operation *)
  match msg with
  | Protocol.M_batch items ->
    (* one aggregated frame from a direct child's subtree (already one proc
       slot); the reports inside are handled in arrival order *)
    Metrics.incr t.metrics "mgr.tree.up_batches";
    Metrics.add t.metrics "mgr.tree.up_msgs" (List.length items);
    List.iter (fun m -> on_agent_message t m) items
  | Protocol.M_subtree_down { node } ->
    Metrics.incr t.metrics "mgr.tree.subtree_down";
    trace t (Printf.sprintf "subtree_down:node%d" node);
    channel_broke t ~node
  | Protocol.M_pong { node; seq } -> t.on_pong ~node ~seq
  | Protocol.M_migrate_round { stats; _ } ->
    (match t.mig, t.current with
     | Some mg, Some p when p.p_kind = `Mig_copy ->
       mg.mg_rounds <- stats.Protocol.mg_round + 1;
       Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
         "mig.bytes_per_round" (float_of_int stats.Protocol.mg_bytes);
       trace t (Printf.sprintf "mig_round_report:%d" stats.Protocol.mg_round);
       (* keepalive: a converging pre-copy legitimately outlives one
          phase_timeout; every round report pushes the watchdog out *)
       p.p_arm <- p.p_arm + 1;
       arm_phase_timeout t p Protocol.Ph_meta
     | _ -> ())
  | Protocol.M_migrate_done { rounds; precopy_bytes; forced; _ } ->
    (* the destination's commit: its staged copy is now complete and
       authoritative even if the source is lost from here on *)
    (match t.mig with
     | Some mg ->
       mg.mg_committed <- true;
       mg.mg_rounds <- rounds;
       mg.mg_forced <- forced;
       Metrics.observe t.metrics "mig.rounds" (float_of_int rounds);
       Metrics.observe t.metrics ~buckets:Metrics.default_bytes_buckets
         "mig.precopy_bytes" (float_of_int precopy_bytes);
       if forced then Metrics.incr t.metrics "mig.forced_stops";
       trace t "mig_committed"
     | None -> ())
  | Protocol.M_meta _ | Protocol.M_done _ ->
  match t.current with
  | None -> ()
  | Some p ->
    (match msg with
     | Protocol.M_pong _ | Protocol.M_migrate_round _ | Protocol.M_migrate_done _
     | Protocol.M_batch _ | Protocol.M_subtree_down _ ->
       ()  (* handled above *)
     | Protocol.M_meta { pod_id; meta; _ } ->
       p.p_metas <- meta :: p.p_metas;
       p.p_wait_meta <- List.filter (fun id -> id <> pod_id) p.p_wait_meta;
       (match Hashtbl.find_opt t.infos pod_id with
        | Some info -> Hashtbl.replace t.infos pod_id { info with pi_meta = meta }
        | None -> ());
       (* step 3 of Figure 1: when every Agent has reported its meta-data,
          tell them all to continue (a migration's final stop-and-copy runs
          the same gated protocol; the destination's stray 'continue' is
          harmless) *)
       if p.p_wait_meta = [] && (p.p_kind = `Checkpoint || p.p_kind = `Mig_copy)
       then begin
         span_end t "mgr_sync";
         trace t "continue_broadcast";
         List.iter
           (fun (pod, node) -> send t node (Protocol.A_continue { pod_id = pod }))
           p.p_items;
         arm_phase_timeout t p Protocol.Ph_done
       end
     | Protocol.M_done { pod_id; ok; detail; stats; _ } ->
       if not (List.mem pod_id p.p_wait_done) then begin
         (* a duplicate or stale done-report (late abort fallout from an
            earlier generation, or a re-delivered message) must not touch —
            let alone abort — an operation that is not waiting on it *)
         Metrics.incr t.metrics "mgr.stale_done";
         trace t (Printf.sprintf "stale_done:pod%d" pod_id)
       end
       else if not ok then begin
         let node =
           match List.assoc_opt pod_id p.p_items with Some n -> n | None -> -1
         in
         fail_op t (Protocol.F_agent { node; pod_id; detail })
       end
       else begin
         p.p_stats <- (pod_id, stats) :: p.p_stats;
         p.p_wait_done <- List.filter (fun id -> id <> pod_id) p.p_wait_done;
         if p.p_wait_done = [] && (p.p_kind = `Restart || p.p_wait_meta = []) then
           finish t
             { r_ok = true; r_failure = None; r_detail = "";
               r_duration = Simtime.sub (Engine.now t.engine) p.p_started;
               r_stats = p.p_stats; r_metas = p.p_metas }
       end)

let attach_agent t ~node (ch : Protocol.channel) =
  Hashtbl.replace t.channels node ch;
  (* receiving costs one proc slot per channel message (a batch is one) *)
  Control.set_up_handler ch (fun msg -> proc t (fun () -> on_agent_message t msg));
  Control.on_break ch (fun () -> channel_broke t ~node)

(* (Re)install the hierarchical topology: [children] are the manager's
   direct sub-coordinators with their edges, [routes] maps every tree node
   to its first-hop child, and [edges] maps every node to the channel its
   parent reaches it by.  Replaces whatever topology was installed before —
   the Cluster re-forms the tree over the surviving nodes after a
   recovery. *)
let set_tree t ~children ~routes ~edges =
  Hashtbl.reset t.channels;
  Hashtbl.reset t.routes;
  Hashtbl.reset t.edges;
  Hashtbl.reset t.out_buf;
  List.iter (fun (node, ch) -> attach_agent t ~node ch) children;
  List.iter (fun (node, hop) -> Hashtbl.replace t.routes node hop) routes;
  List.iter (fun (node, ch) -> Hashtbl.replace t.edges node ch) edges;
  Metrics.set_gauge t.metrics "mgr.tree.children"
    (float_of_int (List.length children))

(* failure injection for tests and demos: sever the control connection to
   one Agent (both sides then abort, per section 4).  In tree mode the
   severed link is the node's uplink from its parent, wherever that is. *)
let break_channel t ~node =
  match Hashtbl.find_opt t.edges node with
  | Some ch -> Control.break ch
  | None ->
    (match Hashtbl.find_opt t.channels node with
     | Some ch -> Control.break ch
     | None -> ())

let agent_channel t ~node =
  match Hashtbl.find_opt t.edges node with
  | Some _ as ch -> ch
  | None -> Hashtbl.find_opt t.channels node

let agent_nodes t =
  (if Hashtbl.length t.edges > 0 then
     Hashtbl.fold (fun n _ acc -> n :: acc) t.edges []
   else Hashtbl.fold (fun n _ acc -> n :: acc) t.channels [])
  |> List.sort Int.compare

(* --- heartbeats --- *)

let set_on_pong t fn = t.on_pong <- fn

(* Probe one Agent; pings to missing or broken channels vanish silently —
   that silence is exactly what the supervisor counts as a missed beat. *)
let ping t ~node ~seq = send_opt t node (Protocol.A_ping { seq })

(* --- checkpoint --- *)

let checkpoint ?(incremental = false) ?parent t ~(items : ckpt_item list)
    ~(resume : bool) ~(on_done : op_result -> unit) =
  if t.current <> None then invalid_arg "Manager: operation already in progress";
  t.gen <- t.gen + 1;
  let p =
    {
      p_wait_meta = List.map (fun i -> i.ci_pod) items;
      p_wait_done = List.map (fun i -> i.ci_pod) items;
      p_stats = [];
      p_metas = [];
      p_failed = None;
      p_arm = 0;
      p_items = List.map (fun i -> (i.ci_pod, i.ci_node)) items;
      p_started = Engine.now t.engine;
      p_kind = `Checkpoint;
      p_gen = t.gen;
      p_done = on_done;
    }
  in
  t.current <- Some p;
  Metrics.incr t.metrics "mgr.ckpt.started";
  let op_span = span_begin_id t ~op:t.gen ?parent "ckpt_op" in
  span_begin t ~op:t.gen ?parent:(Trace.parent_arg op_span) "mgr_sync";
  let ctx = ctx_for t op_span in
  trace t "ckpt_broadcast";
  List.iter
    (fun i ->
      send t i.ci_node
        (Protocol.A_checkpoint
           { pod_id = i.ci_pod; dest = i.ci_dest; resume; incremental; ctx }))
    items;
  arm_phase_timeout t p Protocol.Ph_meta

(* --- restart --- *)

(* What a restart needs to know of one pod: its name, vip and meta-data
   and, only when its send queues are to be redirected, its saved sockets.
   A stored image is read for exactly those fields; the Agent decodes the
   rest. *)
let pod_facts t (item : restart_item) =
  match item.ri_uri with
  | Protocol.U_storage key ->
    let fields =
      if t.params.redirect_sendq then [ "name"; "vip"; "meta"; "sockets" ]
      else [ "name"; "vip"; "meta" ]
    in
    (match Storage.get t.storage key with
     | None -> Error (Protocol.F_missing_image (Printf.sprintf "no image at %s" key))
     | Some image ->
       (try
          let v = Wire.decode_fields image.Image.encoded fields in
          let info =
            { pi_name = Pod_ckpt.name_of_image v; pi_vip = Pod_ckpt.vip_of_image v;
              pi_meta = Pod_ckpt.meta_of_image v }
          in
          let socks =
            if t.params.redirect_sendq then Some (Pod_ckpt.sockets_of_image v) else None
          in
          Ok (info, socks)
        with Value.Decode_error msg ->
          Error (Protocol.F_bad_image (Printf.sprintf "bad image at %s: %s" key msg))))
  | Protocol.U_node _ ->
    (match Hashtbl.find_opt t.infos item.ri_pod with
     | None ->
       Error
         (Protocol.F_missing_image
            (Printf.sprintf "no cached meta for streamed pod %d" item.ri_pod))
     | Some info -> Ok (info, None))

(* The send-queue redirection optimization (paper section 5): instead of
   resending each send queue over the re-established connection, merge it
   into the *peer's* checkpoint stream so it travels once.  Requires the
   peers' saved sockets, so it applies to storage-based restarts.  Every
   lookup goes through the schedule's index. *)
let redirected_altq ix ~socks (pod_id : int) (entries : Meta.restart_entry list) =
  List.filter_map
    (fun (e : Meta.restart_entry) ->
      if e.ri_orphan then None
      else
        match Meta.paired_peer ix e with
        | None -> None
        | Some (peer_pod, peer_entry) ->
          (match Hashtbl.find_opt socks peer_pod with
           | None -> None
           | Some peer_socks ->
             let im = peer_socks.(peer_entry.Meta.sock_ref) in
             let my_recv =
               (* my rcv_nxt = what I already have of the peer's stream *)
               match Meta.entry_of_sock ix ~pod:pod_id ~sock_ref:e.ri_sock_ref with
               | Some me -> me.recv
               | None -> peer_entry.acked
             in
             let data =
               Sock_state.trim_overlap ~acked:peer_entry.acked ~peer_recv:my_recv
                 im.Sock_state.send_data
             in
             if String.length data = 0 then None else Some (e.ri_sock_ref, data)))
    entries

let restart ?(kind = `Restart) ?parent t ~(items : restart_item list)
    ~(on_done : op_result -> unit) =
  if t.current <> None then invalid_arg "Manager: operation already in progress";
  let prefix, opname =
    match kind with
    | `Restart -> "mgr.restart", "restart_op"
    | `Mig_restore -> "mgr.mig.restore", "mig_restore"
  in
  Metrics.incr t.metrics (prefix ^ ".started");
  let facts = List.map (fun i -> (i, pod_facts t i)) items in
  match
    List.find_map (fun (_, f) -> match f with Error e -> Some e | Ok _ -> None) facts
  with
  | Some failure ->
    Metrics.incr t.metrics (prefix ^ ".failed");
    on_done
      { r_ok = false; r_failure = Some failure;
        r_detail = Protocol.failure_to_string failure; r_duration = Simtime.zero;
        r_stats = []; r_metas = [] }
  | None ->
    let facts =
      List.map
        (fun (i, f) -> match f with Ok x -> (i, x) | Error _ -> assert false)
        facts
    in
    let metas = List.map (fun (_, (info, _)) -> info.pi_meta) facts in
    (* peer send queues by pod, first image of a pod id wins *)
    let socks = Hashtbl.create 8 in
    List.iter
      (fun (i, (_, so)) ->
        match so with
        | Some a when not (Hashtbl.mem socks i.ri_pod) -> Hashtbl.add socks i.ri_pod a
        | Some _ | None -> ())
      facts;
    (* the new connectivity map: virtual addresses -> destination reals *)
    let vip_map =
      List.map (fun (i, (info, _)) -> (info.pi_vip, t.alloc_rip i.ri_node)) facts
    in
    let ix = Meta.index metas in
    let schedule = Meta.schedule ix in
    let redirect =
      t.params.redirect_sendq && List.for_all (fun (_, (_, so)) -> so <> None) facts
    in
    t.gen <- t.gen + 1;
    let p =
      {
        p_wait_meta = [];
        p_wait_done = List.map (fun i -> i.ri_pod) items;
        p_stats = [];
        p_metas = metas;
        p_failed = None;
        p_arm = 0;
        p_items = List.map (fun i -> (i.ri_pod, i.ri_node)) items;
        p_started = Engine.now t.engine;
        p_kind = (kind :> [ `Checkpoint | `Restart | `Mig_copy | `Mig_restore ]);
        p_gen = t.gen;
        p_done = on_done;
      }
    in
    t.current <- Some p;
    let op_span = span_begin_id t ~op:t.gen ?parent opname in
    let ctx = ctx_for t op_span in
    arm_phase_timeout t p Protocol.Ph_done;
    List.iter
      (fun (item, (info, _)) ->
        let entries =
          match List.assoc_opt item.ri_pod schedule with Some e -> e | None -> []
        in
        let extra_altq =
          if redirect then redirected_altq ix ~socks item.ri_pod entries else []
        in
        let vip = info.pi_vip in
        let rip =
          match List.assoc_opt vip vip_map with Some r -> r | None -> vip
        in
        send t item.ri_node
          (Protocol.A_restart
             { pod_id = item.ri_pod; name = info.pi_name; vip; rip; uri = item.ri_uri;
               entries; vip_map; extra_altq; skip_sendq = redirect; ctx }))
      facts

(* --- live migration --- *)

let set_on_migrated t fn = t.on_migrated <- fn

(* Two phases under one generation-guarded operation: (A) the source Agent
   iterates pre-copy rounds into the destination's stage, then runs the
   gated stop-and-copy of the residue (same meta/continue/done protocol as
   a checkpoint — that is the blackout window); (B) the staged copy is
   activated on the destination through the ordinary restart path, which
   finds it prestaged and only pays the residue-apply cost. *)
let migrate ?max_rounds ?dirty_threshold ?parent t ~(pod : int)
    ~(src_node : int) ~(dest_node : int) ~(on_done : op_result -> unit) =
  if t.current <> None || t.mig <> None then
    invalid_arg "Manager: operation already in progress";
  let max_rounds =
    match max_rounds with Some r -> r | None -> t.params.mig_max_rounds
  in
  let dirty_threshold =
    match dirty_threshold with
    | Some f -> f
    | None -> t.params.mig_dirty_threshold
  in
  t.gen <- t.gen + 1;
  let mg =
    { mg_pod = pod; mg_src = src_node; mg_dest = dest_node;
      mg_started = Engine.now t.engine; mg_rounds = 0; mg_forced = false;
      mg_committed = false; mg_gen = t.gen; mg_done = on_done }
  in
  t.mig <- Some mg;
  Metrics.incr t.metrics "mgr.mig.started";
  let mig_span = span_begin_id t ~op:t.gen ?parent "migrate" in
  trace t (Printf.sprintf "migrate_start:pod%d:%d->%d" pod src_node dest_node);
  let finish_mig (r : op_result) =
    t.mig <- None;
    Metrics.incr t.metrics (if r.r_ok then "mgr.mig.ok" else "mgr.mig.failed");
    Metrics.observe t.metrics "mgr.mig.duration_ms" (Simtime.to_ms r.r_duration);
    if r.r_ok then
      trace t
        (Printf.sprintf "mig_done:rounds%d%s" mg.mg_rounds
           (if mg.mg_forced then ":forced" else ""));
    span_end t "migrate";
    (* watchers learn the new home before (and regardless of how) the
       caller reacts to completion *)
    if r.r_ok then t.on_migrated ~pod ~src:src_node ~dest:dest_node;
    mg.mg_done r
  in
  let p =
    {
      p_wait_meta = [ pod ];
      p_wait_done = [ pod ];
      p_stats = [];
      p_metas = [];
      p_failed = None;
      p_arm = 0;
      (* the destination is a party to the copy phase: an abort broadcast
         must also clear its staged rounds *)
      p_items = [ (pod, src_node); (pod, dest_node) ];
      p_started = Engine.now t.engine;
      p_kind = `Mig_copy;
      p_gen = t.gen;
      p_done =
        (fun (copy : op_result) ->
          if not copy.r_ok then
            finish_mig
              { copy with
                r_duration = Simtime.sub (Engine.now t.engine) mg.mg_started }
          else begin
            trace t "mig_copy_done";
            (* phase B, synchronously in the same engine callback (finish
               cleared t.current first, and nothing can interleave): the
               handoff to the activated destination copy is atomic as far
               as Periodic and the Supervisor can observe *)
            restart ~kind:`Mig_restore ?parent:(Trace.parent_arg mig_span) t
              ~items:
                [ { ri_node = dest_node; ri_pod = pod;
                    ri_uri = Protocol.U_node dest_node } ]
              ~on_done:(fun (res : op_result) ->
                finish_mig
                  { res with
                    r_stats = res.r_stats @ copy.r_stats;
                    r_metas =
                      (match res.r_metas with [] -> copy.r_metas | ms -> ms);
                    r_duration =
                      Simtime.sub (Engine.now t.engine) mg.mg_started })
          end);
    }
  in
  t.current <- Some p;
  let copy_span =
    span_begin_id t ~op:t.gen ?parent:(Trace.parent_arg mig_span) "mig_copy"
  in
  span_begin t ~op:t.gen ?parent:(Trace.parent_arg copy_span) "mgr_sync";
  let ctx = ctx_for t copy_span in
  send t src_node
    (Protocol.A_migrate
       { pod_id = pod; dest = dest_node; max_rounds; dirty_threshold; ctx });
  arm_phase_timeout t p Protocol.Ph_meta

let busy t = t.current <> None || t.mig <> None
