(* kv_serve: the sharded key-value service under 1000 open-loop client
   connections (2 shards on 5 nodes, one request per connection every
   100 ms virtual), driven through four phases while the traffic flows:
   steady state, periodic checkpoints every 80 ms, a live migration of
   shard 0, and a crash of shard 1's node healed by the supervisor, then
   the remaining requests drain.  Each connection sends 6 requests, half
   of the `serve` experiment's 12, and the phases are 100-200 ms long, so
   a pass fits a benchmark run twice.

   Work per wake grows with the number of connections, not with the ready
   work, so simos and simnet dominate host time here; the workload also
   carries the paper's availability result (client latency through
   checkpoint, migration and crash). *)

module Simtime = Zapc_sim.Simtime
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Periodic = Zapc.Periodic
module Supervisor = Zapc.Supervisor
module Serve = Zapc_apps.Serve
module Faultsim = Zapc_faultsim.Faultsim
module Metrics = Zapc_obs.Metrics
module Fabric = Zapc_simnet.Fabric

let cfg =
  { Serve.default_cfg with
    n_conns = 1000;
    reqs_per_conn = 6;
    period = Simtime.ms 100;
    req_timeout = Simtime.ms 150 }

(* Virtual-time step of the drain phase: the client state is polled once
   per step, never per engine event. *)
let drain_step = Simtime.ms 50

let node_of cluster (p : Pod.t) =
  match Pod.find p.Pod.pod_id with
  | Some live -> Fabric.node_of_ip (Cluster.fabric cluster) live.Pod.rip
  | None -> None

let name = "kv_serve"
let sized = false

type env = {
  t : Serve.t;
  mutable ckpts : float list;
  mutable crash_ms : float;
}

let cluster e = e.t.Serve.cluster

let setup (b : Bench.t) ~seed ~half:_ =
  let params = { Serve.serve_params with profile_engine = b.Bench.traced } in
  let t = Serve.setup ~nodes:5 ~seed ~params ~cfg () in
  if b.Bench.traced then ignore (Cluster.enable_trace t.Serve.cluster);
  (* warm-up: every connection established, steady traffic flowing *)
  Cluster.run t.Serve.cluster ~until:(Simtime.ms 100) ();
  { t; ckpts = []; crash_ms = 0.0 }

let until_idle b cluster =
  Bench.drive b (fun () ->
      Cluster.run_until cluster ~timeout:(Simtime.sec 10.0) (fun () ->
          not (Manager.busy (Cluster.manager cluster))))

let run (b : Bench.t) e =
  let t = e.t in
  let cluster = t.Serve.cluster in
  let run_to ms = Bench.drive b (fun () -> Cluster.run cluster ~until:(Simtime.ms ms) ()) in
  (* phase 1: steady state *)
  run_to 150;
  (* phase 2: periodic coordinated checkpoints, supervised *)
  let per =
    Periodic.start cluster ~pods:t.Serve.servers ~prefix:"slo"
      ~period:(Simtime.ms 80) ~keep:2 ()
  in
  Periodic.set_on_epoch per (fun _ r ->
      if r.Manager.r_ok then begin
        e.ckpts <- Simtime.to_ms r.Manager.r_duration :: e.ckpts;
        Bench.ckpt_stats b r
      end);
  let sup = Supervisor.start ?trace:(Cluster.trace cluster) cluster per in
  run_to 350;
  (* phase 3: live migration of shard 0, once no epoch is in flight *)
  until_idle b cluster;
  let m =
    Bench.op b "zapc.migrate_op.host_ms" (fun () ->
        Cluster.migrate_sync cluster ~pod:(List.hd t.Serve.servers) ~dest_node:3)
  in
  if not m.Manager.r_ok then Bench.fail "kv_serve: migration failed: %s" m.Manager.r_detail;
  List.iter
    (fun (_, (st : Zapc.Protocol.agent_stats)) ->
      Bench.add b "mig.image_bytes" (float_of_int st.Zapc.Protocol.st_image_bytes))
    m.Manager.r_stats;
  run_to 450;
  (* phase 4: crash shard 1's node between two epochs.  The fault injector
     turns the span trace on, so it exists only from here. *)
  if Periodic.last_good per < 1 then Bench.fail "kv_serve: no good epoch before the crash";
  until_idle b cluster;
  let crash_node =
    match node_of cluster (List.nth t.Serve.servers 1) with
    | Some n -> n
    | None -> Bench.fail "kv_serve: shard 1 has no node"
  in
  e.crash_ms <- Simtime.to_ms (Cluster.now cluster);
  let fs = Faultsim.create cluster in
  Faultsim.install fs
    { Faultsim.fault = Faultsim.Crash_node { node = crash_node }; trigger = Faultsim.Now };
  Bench.drive b (fun () ->
      Cluster.run_until cluster ~timeout:(Simtime.sec 60.0) (fun () ->
          Supervisor.recoveries sup >= 1 || Supervisor.gave_up sup));
  if Supervisor.gave_up sup then Bench.fail "kv_serve: supervisor gave up";
  (* no epoch after the recovery: the drain's length depends on the seed *)
  Supervisor.stop sup;
  Periodic.stop per;
  until_idle b cluster;
  (* drain: step virtual time, poll the clients between steps *)
  let deadline = Simtime.add (Cluster.now cluster) (Simtime.sec 300.0) in
  let finished () = Bench.span b ~layer:"apps.kv" (fun () -> Serve.all_done t) in
  while (not (finished ())) && Simtime.compare (Cluster.now cluster) deadline < 0 do
    Bench.drive b (fun () ->
        Cluster.run cluster ~until:(Simtime.add (Cluster.now cluster) drain_step) ())
  done

let finish (b : Bench.t) e =
  let t = e.t in
  let cluster = t.Serve.cluster in
  let reg = Cluster.metrics cluster in
  let s = Serve.feed_metrics t in
  let expected = Serve.total_expected t in
  let bad =
    abs (expected - s.Serve.st_completed) + abs (expected - s.st_issued)
    + s.st_dups + s.st_inflight
  in
  Bench.count b "client requests exactly once" ~attempted:expected ~failed:(min expected bad);
  for shard = 0 to cfg.nshards - 1 do
    Bench.check b (Printf.sprintf "shard %d digest non-zero" shard)
      (Serve.digest t ~shard <> 0)
  done;
  let lats = Array.to_list (Array.map (fun (_, l) -> l /. 1e6) s.Serve.st_samples) in
  Bench.set b "client_ms_p50" (Bench.percentile 0.50 lats);
  Bench.set b "client_ms_p99" (Bench.percentile 0.99 lats);
  Bench.set b "client_samples" (float_of_int (List.length lats));
  List.iter (Bench.add b "ckpt_ms") (List.rev e.ckpts);
  (* the supervised recovery is the only restart *)
  Bench.set b "restart_ms" (Metrics.hist_sum reg "mgr.restart.duration_ms");
  Bench.set b "blackout_ms" (Metrics.hist_sum reg "mig.blackout_ms");
  Bench.set b "mttr_ms" (Metrics.gauge reg "sup.last_recovered_ms" -. e.crash_ms);
  Bench.set b "detect_ms" (Metrics.gauge reg "sup.last_detect_ms" -. e.crash_ms);
  Bench.set b "mig.rounds" (Metrics.hist_sum reg "mig.rounds");
  Bench.set b "mig.precopy_bytes" (Metrics.hist_sum reg "mig.precopy_bytes");
  Bench.set b "kv.retries" (float_of_int s.st_retries);
  Bench.set b "kv.completed" (float_of_int s.st_completed);
  Bench.set b "kv.timeouts" (float_of_int s.st_timeouts);
  Bench.set b "kv.reconnects" (float_of_int s.st_reconnects)

let teardown e =
  List.iter
    (fun (p : Pod.t) -> Option.iter Pod.destroy (Pod.find p.Pod.pod_id))
    (e.t.Serve.servers @ List.map fst e.t.Serve.clients)
