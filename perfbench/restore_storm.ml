(* restore_storm: the kv service is frozen mid-traffic (a checkpoint with
   resume:false) with ~2000 established connections, then both shards are
   restarted again and again from the same images onto alternating node
   pairs.

   It reads where bt_ckpt writes: storage read-back, image decode and
   socket-state restore at thousands of sockets per pod. *)

module Simtime = Zapc_sim.Simtime
module Pod = Zapc_pod.Pod
module Cluster = Zapc.Cluster
module Manager = Zapc.Manager
module Protocol = Zapc.Protocol
module Serve = Zapc_apps.Serve

let conns = 2000
let restarts = 10
let pairs = [| [ 2; 3 ]; [ 0; 1 ] |]

let sockets (r : Manager.op_result) =
  List.fold_left (fun a (_, (st : Protocol.agent_stats)) -> a + st.Protocol.st_sockets) 0
    r.Manager.r_stats

let name = "restore_storm"
let sized = true

type env = {
  t : Serve.t;
  frozen : Manager.op_result;
}

let cluster e = e.t.Serve.cluster
let ids e = List.map (fun (p : Pod.t) -> p.Pod.pod_id) e.t.Serve.servers

let setup (b : Bench.t) ~seed ~half =
  let cfg =
    { Kv_serve.cfg with
      Serve.n_conns = (if half then conns / 2 else conns); client_pods = 4 }
  in
  let params = { Serve.serve_params with profile_engine = b.Bench.traced } in
  let t = Serve.setup ~nodes:4 ~seed ~params ~cfg () in
  let cluster = t.Serve.cluster in
  if b.Bench.traced then ignore (Cluster.enable_trace cluster);
  (* every connection established, requests in flight *)
  Cluster.run cluster ~until:(Simtime.ms 60) ();
  let frozen =
    Bench.op b "zapc.ckpt_op.host_ms" (fun () ->
        Cluster.checkpoint_sync cluster ~items:(Serve.ckpt_items t ~prefix:"storm")
          ~resume:false)
  in
  if not frozen.Manager.r_ok then Bench.fail "restore_storm: freeze failed: %s" frozen.Manager.r_detail;
  Bench.add b "ckpt_ms" (Simtime.to_ms frozen.Manager.r_duration);
  Bench.ckpt_stats b frozen;
  (* the clients go too: every restart then repeats the same work *)
  List.iter (fun ((p : Pod.t), _) -> Pod.destroy p) t.Serve.clients;
  { t; frozen }

let run (b : Bench.t) e =
  let cluster = cluster e in
  let ids = ids e in
  for i = 0 to restarts - 1 do
    let r =
      Bench.op b "zapc.restart_op.host_ms" (fun () ->
          Cluster.restart_app cluster ~pod_ids:ids
            ~target_nodes:pairs.(i mod Array.length pairs) ~key_prefix:"storm")
    in
    if not r.Manager.r_ok then Bench.fail "restore_storm: restart failed: %s" r.Manager.r_detail;
    Bench.add b "restart_ms" (Simtime.to_ms r.Manager.r_duration);
    Bench.restart_stats b r;
    Bench.check b (Printf.sprintf "restart %d restores every socket" i)
      (sockets r = sockets e.frozen);
    List.iter (fun id -> Option.iter Pod.destroy (Pod.find id)) ids
  done

let finish (_ : Bench.t) _ = ()

let teardown e =
  List.iter
    (fun (p : Pod.t) -> Option.iter Pod.destroy (Pod.find p.Pod.pod_id))
    (e.t.Serve.servers @ List.map fst e.t.Serve.clients)
