(* bt_ckpt: 16-rank BT/NAS with the paper's Figure-6 parameters on 8
   dual-CPU nodes.  Coordinated checkpoints at a fixed virtual period —
   the first full, the rest incremental, on the default storage backend —
   then every rank restarts from the last epoch and runs to completion.
   The final checksum must equal that of an uncheckpointed run.

   This is the paper's own experiment, with MPI traffic in flight:
   checkpoint writes are a large share of host time, and each rank has
   only a few fds. *)

module Simtime = Zapc_sim.Simtime
module Kernel = Zapc_simos.Kernel
module Proc = Zapc_simos.Proc
module Program = Zapc_simos.Program
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Params = Zapc.Params
module Launch = Zapc_msg.Launch

let ranks = 16
let nodes = 8
let placement = List.init ranks (fun i -> i mod nodes)

(* Figure 6: BT/NAS class sized so a single node runs a virtual minute *)
let app_args =
  Zapc_apps.Bt_nas.params_to_value
    { Zapc_apps.Bt_nas.g = 384; iters = 150; ns_per_cell = 2_700;
      mem_base = 20_000_000; mem_scaled = 320_000_000 }

let epochs = 4
let period_ms = 500

let checksum_prefix = "bt_nas: checksum"

let params ~profile = { Params.default with profile_engine = profile }

let launch ~profile ~seed =
  let params = params ~profile in
  Zapc_apps.Registry.register_all ();
  let cluster = Cluster.make ~seed ~cpus:2 ~params ~node_count:nodes () in
  let logged = ref [] in
  for i = 0 to nodes - 1 do
    Kernel.set_logger (Cluster.node cluster i).Cluster.n_kernel (fun _ _ m ->
        if String.starts_with ~prefix:checksum_prefix m then logged := m :: !logged)
  done;
  let app =
    Launch.launch cluster ~name:"bt" ~program:"bt_nas" ~placement ~app_args ()
  in
  (cluster, app, logged)

let destroy_pods ids =
  List.iter (fun id -> Option.iter Pod.destroy (Pod.find id)) ids

(* The checksum of an uncheckpointed run, computed once per process (the
   computation is the same for every seed; only timing depends on it). *)
let reference = ref None

let reference_checksum ~seed =
  match !reference with
  | Some c -> c
  | None ->
    let cluster, app, logged = launch ~profile:false ~seed in
    ignore (Launch.wait_done cluster app);
    destroy_pods (Launch.pod_ids app);
    let c =
      match !logged with
      | [ c ] -> c
      | l -> Bench.fail "bt_ckpt: reference run logged %d checksums" (List.length l)
    in
    reference := Some c;
    c

let restored_ranks ids =
  List.concat_map
    (fun id ->
      match Pod.find id with
      | None -> []
      | Some pod ->
        List.filter_map
          (fun (_, (p : Proc.t)) ->
            if Program.name_of p.Proc.inst = "bt_nas" then Some p else None)
          (Pod.members pod))
    ids

let name = "bt_ckpt"
let sized = false

type env = {
  cluster : Cluster.t;
  app : Launch.app;
  logged : string list ref;
  seed : int;
}

let cluster e = e.cluster

let setup (b : Bench.t) ~seed ~half:_ =
  let cluster, app, logged = launch ~profile:b.Bench.traced ~seed in
  if b.Bench.traced then ignore (Cluster.enable_trace cluster);
  Cluster.run cluster ~until:(Simtime.ms 5) ();
  { cluster; app; logged; seed }

let run (b : Bench.t) e =
  let cluster = e.cluster in
  let ids = Launch.pod_ids e.app in
  let node_of (p : Pod.t) =
    match Zapc_simnet.Fabric.node_of_ip (Cluster.fabric cluster) p.Pod.rip with
    | Some n -> n
    | None -> -1
  in
  for ep = 0 to epochs - 1 do
    Bench.drive b (fun () ->
        Cluster.run cluster ~until:(Simtime.ms (period_ms * (ep + 1))) ());
    let key_prefix = Printf.sprintf "e%d" ep in
    let items = Launch.checkpoint_items e.app ~key_prefix ~node_of_pod:node_of in
    let r =
      Bench.op b "zapc.ckpt_op.host_ms" (fun () ->
          Cluster.checkpoint_sync ~incremental:(ep > 0) cluster ~items ~resume:true)
    in
    if not r.Manager.r_ok then Bench.fail "bt_ckpt: epoch %d failed: %s" ep r.Manager.r_detail;
    Bench.add b "ckpt_ms" (Simtime.to_ms r.Manager.r_duration);
    Bench.ckpt_stats b r
  done;
  (* lose the running application, restart every rank from the last epoch
     on the same nodes, and run it to completion *)
  destroy_pods ids;
  e.logged := [];
  let r =
    Bench.op b "zapc.restart_op.host_ms" (fun () ->
        Cluster.restart_app cluster ~pod_ids:ids ~target_nodes:placement
          ~key_prefix:(Printf.sprintf "e%d" (epochs - 1)))
  in
  if not r.Manager.r_ok then Bench.fail "bt_ckpt: restart failed: %s" r.Manager.r_detail;
  Bench.add b "restart_ms" (Simtime.to_ms r.Manager.r_duration);
  Bench.restart_stats b r;
  let procs = restored_ranks ids in
  Bench.check b "every rank restored" (List.length procs = ranks);
  Bench.drive b (fun () ->
      Cluster.run_until cluster ~timeout:(Simtime.sec 3600.0) (fun () ->
          Cluster.procs_exited procs))

let finish (b : Bench.t) e =
  Bench.check b "checksum equals the uncheckpointed run"
    (!(e.logged) = [ reference_checksum ~seed:e.seed ])

let teardown e = destroy_pods (Launch.pod_ids e.app)
