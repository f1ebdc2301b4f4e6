(* fleet_restart: one idle pod per node at a few hundred nodes, under a
   fanout-4 coordinator tree with the `scale` experiment's control-plane
   cost model (25 us of serial work per control message, 300 us per hop).
   Repeated cycles of checkpoint -> destroy -> restart onto shifted nodes.

   There is no application traffic: the control plane and the restore-side
   pod bookkeeping do almost all the work, so this is the workload that
   exposes how restart host time grows with the node count. *)

module Simtime = Zapc_sim.Simtime
module Value = Zapc_codec.Value
module Program = Zapc_simos.Program
module Syscall = Zapc_simos.Syscall
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Params = Zapc.Params
module Storage = Zapc.Storage

let nodes = 200
let cycles = 2

(* The smallest live resident: allocate one page, then sleep forever. *)
module Idler = struct
  type state = { mutable booted : bool }

  let name = "perfbench.idler"
  let start _args = { booted = false }

  let step s (_ : Syscall.outcome) =
    if not s.booted then begin
      s.booted <- true;
      (s, Program.Sys (Syscall.Mem_alloc ("idle", 4096)))
    end
    else (s, Program.Sys (Syscall.Nanosleep (Simtime.sec 50.0)))

  let to_value s = Value.Bool s.booted
  let of_value v = { booted = Value.to_bool v }
end

(* `scale`'s cost model, with a little per-pod cost jitter so the seed
   moves the virtual latencies. *)
let params ~profile =
  { Params.default with
    Params.ctrl_latency = Simtime.us 300;
    ctrl_proc = Simtime.us 25;
    tree_fanout = 4;
    cost_jitter = 0.1;
    storage_bps = 1e12;
    ckpt_fixed = Simtime.us 200;
    restore_fixed = Simtime.us 200;
    profile_engine = profile }

let name = "fleet_restart"
let sized = true

type env = {
  cluster : Cluster.t;
  nodes : int;
  shift : int;
}

let cluster e = e.cluster
let ids e = List.init e.nodes (fun i -> i + 1)
let live e = List.filter_map Pod.find (ids e)

let setup (b : Bench.t) ~seed ~half =
  Program.register_if_absent (module Idler);
  let nodes = if half then nodes / 2 else nodes in
  let cluster =
    Cluster.make ~seed ~params:(params ~profile:b.Bench.traced) ~node_count:nodes ()
  in
  if b.Bench.traced then ignore (Cluster.enable_trace cluster);
  let pods =
    List.init nodes (fun i ->
        Cluster.create_pod cluster ~node_idx:i ~name:(Printf.sprintf "idler%d" i))
  in
  Cluster.link_pods pods;
  List.iter (fun pod -> ignore (Pod.spawn pod ~program:Idler.name ~args:Value.unit)) pods;
  (* every idler booted and parked *)
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  (* the seed picks how far each cycle moves the fleet *)
  { cluster; nodes; shift = 1 + (seed mod (nodes - 1)) }

let target e c i = (i + (c * e.shift)) mod e.nodes

let run (b : Bench.t) e =
  let cluster = e.cluster in
  let storage = Cluster.storage cluster in
  let ids = ids e in
  for c = 1 to cycles do
    let prefix = Printf.sprintf "c%d" c in
    (* only the last cycle's images stay, for the read-back *)
    if c > 1 then
      List.iter
        (fun id -> Storage.remove storage (Printf.sprintf "c%d.pod%d" (c - 1) id))
        ids;
    let pods = live e in
    Bench.check b (Printf.sprintf "cycle %d: every pod alive" c)
      (List.length pods = e.nodes);
    let r =
      Bench.op b "zapc.ckpt_op.host_ms" (fun () ->
          Cluster.snapshot cluster ~pods ~key_prefix:prefix)
    in
    if not r.Manager.r_ok then Bench.fail "fleet_restart: checkpoint failed: %s" r.Manager.r_detail;
    Bench.add b "ckpt_ms" (Simtime.to_ms r.Manager.r_duration);
    Bench.ckpt_stats b r;
    List.iter Pod.destroy pods;
    let r =
      Bench.op b "zapc.restart_op.host_ms" (fun () ->
          Cluster.restart_app cluster ~pod_ids:ids
            ~target_nodes:(List.mapi (fun i _ -> target e c i) ids)
            ~key_prefix:prefix)
    in
    if not r.Manager.r_ok then Bench.fail "fleet_restart: restart failed: %s" r.Manager.r_detail;
    Bench.add b "restart_ms" (Simtime.to_ms r.Manager.r_duration);
    Bench.restart_stats b r
  done

let finish (b : Bench.t) e =
  let pods = live e in
  Bench.check b "every pod restarted" (List.length pods = e.nodes);
  Bench.check b "every pod on its shifted node"
    (List.for_all
       (fun (p : Pod.t) ->
         Zapc_simnet.Fabric.node_of_ip (Cluster.fabric e.cluster) p.Pod.rip
         = Some (target e cycles (p.Pod.pod_id - 1)))
       pods)

let teardown e = List.iter Pod.destroy (live e)
