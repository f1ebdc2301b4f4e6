(* The repository benchmark.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Without tracing, a run repeats set-up + measured part of the workload
   until [--seconds] have passed, and prints the end-to-end metrics: host
   time of the measured part and of the set-up, peak memory, and the
   virtual-time results (checkpoint and restart latency, stored bytes).
   The virtual results come from a fixed set of derived seeds, so a seed
   always gives the same numbers; an iteration that repeats a derived seed
   must reproduce them exactly.

   With tracing, a run makes one untraced and one traced pass on the first
   derived seed (and, for a sized workload, one untraced pass at half size)
   and prints the per-layer metrics.

   Every output check counts toward [attempted]/[failed]; any failure
   makes the run exit non-zero.  The last line of standard output is the
   JSON result. *)

module Cluster = Zapc.Cluster
module Storage = Zapc.Storage
module Metrics = Zapc_obs.Metrics
module Image = Zapc_ckpt.Image

let workloads : (module Bench.WORKLOAD) list =
  [ (module Kv_serve); (module Bt_ckpt); (module Fleet_restart); (module Restore_storm) ]

(* Distinct derived seeds whose virtual results one run reports, and the
   fewest passes a run makes, even when they take longer than [--seconds]. *)
let seeds_per_run = function "restore_storm" -> 4 | _ -> 3

let derived seed i = (seed * 1009) + i

(* Critical-path phases reported per layer (Manager.last_critpath names). *)
let critpath_phases =
  [ "standalone"; "paused"; "mgr_sync"; "pod_ckpt"; "mig_precopy";
    "standalone_restore"; "pod_restart"; "net_restore"; "conn_recovery"; "other" ]

let virtual_names =
  [ "ckpt_ms"; "restart_ms"; "stored_mb"; "client_ms_p50"; "client_ms_p99";
    "client_samples"; "blackout_ms"; "mttr_ms" ]

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

let out_dir = Filename.concat "perfbench" "out"

(* Checks and metrics every workload shares, read after the measured part. *)
let common (b : Bench.t) ~name cluster =
  let reg = Cluster.metrics cluster in
  Bench.count_mgr_ops b reg;
  Bench.check b "no netfilter rule left"
    (Zapc_simnet.Netfilter.blocked_count
       (Zapc_simnet.Fabric.netfilter (Cluster.fabric cluster))
     = 0);
  Bench.set b "stored_mb" (float_of_int (Metrics.counter reg "storage.bytes_written") /. 1e6);
  let g = Metrics.gauge reg in
  Bench.set b "net.retransmits" (g "net.tcp.retransmits");
  Bench.set b "net.window_stalls" (g "net.tcp.window_stalls");
  Bench.set b "net.packets" (g "net.fabric.packets_delivered");
  Bench.set b "ctrl.msgs"
    (float_of_int (Metrics.counter reg "mgr.tree.down_msgs" + Metrics.counter reg "mgr.tree.up_msgs"));
  Bench.set b "storage.delta_resolved" (float_of_int (Metrics.counter reg "storage.delta_resolved"));
  List.iter
    (fun ph -> Bench.set b ("critpath." ^ ph) (Metrics.p50 reg (Printf.sprintf "mgr.critpath.%s_ms" ph)))
    critpath_phases;
  if b.Bench.traced then begin
    (* read back and decode every stored image *)
    let storage = Cluster.storage cluster in
    let decoded = ref 0 and decode_s = ref 0.0 in
    List.iter
      (fun key ->
        let c0 = Bench.cpu () in
        let img = Storage.get storage key in
        Bench.add b "storage.get_us" ((Bench.cpu () -. c0) *. 1e6);
        match img with
        | None -> Bench.check b ("read back " ^ key) false
        | Some img ->
          let c0 = Bench.cpu () in
          ignore (Image.to_pod_image img);
          decode_s := !decode_s +. (Bench.cpu () -. c0);
          decoded := !decoded + String.length img.Image.encoded)
      (Storage.keys storage);
    Bench.set b "decode_mb_per_s"
      (if !decode_s > 0.0 then float_of_int !decoded /. 1e6 /. !decode_s else 0.0);
    (* export the run's artifacts *)
    match Cluster.trace cluster with
    | None -> ()
    | Some tr ->
      (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let c0 = Bench.wall () in
      Zapc.Trace.dump_chrome tr (Filename.concat out_dir (name ^ "-trace.json"));
      Metrics.dump reg (Filename.concat out_dir (name ^ "-metrics.json"));
      Bench.set b "export_s" (Bench.wall () -. c0);
      Bench.set b "spans"
        (float_of_int (List.length (Zapc_obs.Span.spans (Zapc.Trace.recorder tr))))
  end

let iteration (module W : Bench.WORKLOAD) ~traced ~seed ~half =
  let b = Bench.create ~traced in
  let env = Bench.setup b (fun () -> W.setup b ~seed ~half) in
  let cluster = W.cluster env in
  Bench.measure b ~engine:(Cluster.engine cluster) (fun () -> W.run b env);
  common b ~name:W.name cluster;
  W.finish b env;
  W.teardown env;
  b

let setup_only (module W : Bench.WORKLOAD) ~seed =
  let b = Bench.create ~traced:false in
  let env = Bench.setup b (fun () -> W.setup b ~seed ~half:false) in
  W.teardown env;
  b.Bench.setup_s

(* --- result ------------------------------------------------------------ *)

type metric = { m_name : string; m_unit : string; m_value : float }

let m m_name m_unit m_value = { m_name; m_unit; m_value }

let pooled bs name = List.concat_map (fun b -> Bench.values b name) bs
let median_of bs name = Bench.median (pooled bs name)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "%-34s %16.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics;
  Printf.printf "%-34s %16.6f ratio (%d of %d)\n" "failed_ratio"
    (if attempted > 0 then float_of_int failed /. float_of_int attempted else 0.0)
    failed attempted;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.m_name (json_number x.m_value)
          x.m_unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed (String.concat ", " fields)

(* --- the untraced run: end-to-end metrics -------------------------------- *)

let end_to_end w ~name ~seed ~seconds =
  let k = seeds_per_run name in
  let t0 = Bench.wall () in
  let iters = ref [] in
  let i = ref 0 in
  let last = ref 0.0 in
  (* stop before an iteration that would end after [seconds] *)
  while !i < k || Bench.wall () -. t0 +. !last <= seconds do
    let t1 = Bench.wall () in
    let b = iteration w ~traced:false ~seed:(derived seed (!i mod k)) ~half:false in
    last := Bench.wall () -. t1;
    (if !i >= k then
       let first = List.nth (List.rev !iters) (!i mod k) in
       Bench.check b "a repeated seed reproduces the virtual results"
         (List.for_all (fun n -> Bench.values b n = Bench.values first n) virtual_names
          && b.Bench.events = first.Bench.events));
    iters := b :: !iters;
    incr i
  done;
  let iters = List.rev !iters in
  let firsts = List.filteri (fun j _ -> j < k) iters in
  (* set up a few more times for a steadier set-up time *)
  let setups = ref (List.map (fun b -> b.Bench.setup_s) iters) in
  let wanted = if Bench.median !setups < 1.0 then 9 else 3 in
  let j = ref 0 in
  while List.length !setups < wanted do
    setups := setup_only w ~seed:(derived seed (!j mod k)) :: !setups;
    incr j
  done;
  let attempted = List.fold_left (fun a b -> a + b.Bench.attempted) 0 iters in
  let failed = List.fold_left (fun a b -> a + b.Bench.failed) 0 iters in
  List.iter
    (fun b -> List.iter (Printf.printf "FAILED: %s\n") (List.rev b.Bench.failures))
    iters;
  List.iter
    (fun b -> Printf.printf "iteration: host %.4f s, set-up %.4f s\n" b.Bench.host_s b.Bench.setup_s)
    iters;
  let n name = List.length (pooled firsts name) in
  Printf.printf "%s: %d iterations over %d derived seeds; samples: ckpt %d, restart %d\n"
    name (List.length iters) k (n "ckpt_ms") (n "restart_ms");
  if name = "kv_serve" then
    Printf.printf
      "client latency: p50 %.4f ms, p99 %.4f ms (%d samples); blackout %.3f ms; mttr %.3f ms\n"
      (median_of firsts "client_ms_p50") (median_of firsts "client_ms_p99")
      (int_of_float (median_of firsts "client_samples"))
      (median_of firsts "blackout_ms") (median_of firsts "mttr_ms");
  let metrics =
    [ m "host_s" "s" (Bench.median (List.map (fun b -> b.Bench.host_s) iters));
      m "setup_s" "s" (Bench.median !setups);
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m "ckpt_ms_p50" "ms" (median_of firsts "ckpt_ms");
      m "restart_ms_p50" "ms" (median_of firsts "restart_ms");
      m "stored_mb" "MB" (median_of firsts "stored_mb") ]
  in
  (attempted, failed, metrics)

(* --- the traced run: per-layer metrics ----------------------------------- *)

let per_layer ((module W : Bench.WORKLOAD) as w) ~seed =
  let seed = derived seed 0 in
  let plain = iteration w ~traced:false ~seed ~half:false in
  let half = if W.sized then Some (iteration w ~traced:false ~seed ~half:true) else None in
  let tr = iteration w ~traced:true ~seed ~half:false in
  Bench.check tr "tracing leaves the virtual results unchanged"
    (List.for_all (fun n -> Bench.values tr n = Bench.values plain n) virtual_names
     && tr.Bench.events = plain.Bench.events);
  let runs = plain :: tr :: Option.to_list half in
  let attempted = List.fold_left (fun a b -> a + b.Bench.attempted) 0 runs in
  let failed = List.fold_left (fun a b -> a + b.Bench.failed) 0 runs in
  List.iter
    (fun b -> List.iter (Printf.printf "FAILED: %s\n") (List.rev b.Bench.failures))
    runs;
  let v name = Bench.median (Bench.values tr name) in
  let host layer = Bench.layer_host tr layer in
  let events layer = float_of_int (Bench.layer_events tr layer) in
  let ratio a c = if c > 0.0 then a /. c else 0.0 in
  let sum name = List.fold_left ( +. ) 0.0 (Bench.values tr name) in
  let restart_host b = Bench.median (Bench.values b "zapc.restart_op.host_ms") in
  let critpath =
    List.map (fun ph -> m (Printf.sprintf "zapc.critpath.%s_ms" ph) "ms" (v ("critpath." ^ ph)))
      critpath_phases
  in
  let metrics =
    [ m "sim.events" "count" (float_of_int tr.Bench.events);
      m "sim.events_per_host_s" "1/s" (ratio (float_of_int plain.Bench.events) plain.Bench.host_s);
      m "sim.host_s" "s" (host "sim");
      m "simos.host_s" "s" (host "simos");
      m "simos.events" "count" (events "simos");
      m "simos.us_per_event" "us" (1e6 *. ratio (host "simos") (events "simos"));
      m "simnet.host_s" "s" (host "simnet");
      m "simnet.events" "count" (events "simnet");
      m "simnet.retransmits" "count" (v "net.retransmits");
      m "simnet.window_stalls" "count" (v "net.window_stalls");
      m "simnet.retx_ratio" "ratio" (ratio (v "net.retransmits") (v "net.packets"));
      m "apps.kv.host_s" "s" (host "apps.kv");
      m "apps.kv.retry_ratio" "ratio" (ratio (v "kv.retries") (v "kv.completed"));
      m "apps.kv.timeouts" "count" (v "kv.timeouts");
      m "apps.kv.reconnects" "count" (v "kv.reconnects");
      m "apps.kv.client_ms_p50" "ms" (v "client_ms_p50");
      m "apps.kv.client_ms_p99" "ms" (v "client_ms_p99");
      m "apps.kv.client_samples" "count" (v "client_samples");
      m "zapc.agent.host_s" "s" (host "zapc.agent");
      m "zapc.agent.events" "count" (events "zapc.agent");
      m "zapc.ctrl.host_s" "s" (host "zapc.ctrl");
      m "zapc.ctrl.msgs" "count" (v "ctrl.msgs");
      m "zapc.sup.host_s" "s" (host "zapc.sup");
      m "faultsim.host_s" "s" (host "faultsim");
      m "zapc.ckpt_op.host_ms" "ms" (v "zapc.ckpt_op.host_ms");
      m "zapc.restart_op.host_ms" "ms" (v "zapc.restart_op.host_ms");
      m "zapc.migrate_op.host_ms" "ms" (v "zapc.migrate_op.host_ms");
      m "zapc.restart_op.size_exponent" "ratio"
        (match half with
         | Some h when restart_host h > 0.0 -> Float.log2 (restart_host plain /. restart_host h)
         | Some _ | None -> 0.0) ]
    @ critpath
    @ [ m "zapc.restart.conn_ms" "ms" (v "restart.conn_ms");
        m "netckpt.net_ms" "ms" (v "netckpt.net_ms");
        m "netckpt.sockets" "count" (v "netckpt.sockets");
        m "zapc.detect_ms" "ms" (v "detect_ms");
        m "zapc.mttr_ms" "ms" (v "mttr_ms");
        m "zapc.mig.blackout_ms" "ms" (v "blackout_ms");
        m "zapc.mig.rounds" "count" (v "mig.rounds");
        m "zapc.mig.precopy_ratio" "ratio" (ratio (v "mig.precopy_bytes") (v "mig.image_bytes"));
        m "zapc.storage.host_s" "s" (host "zapc.storage");
        m "zapc.storage.get_us" "us" (v "storage.get_us");
        m "zapc.storage.delta_resolved" "count" (v "storage.delta_resolved");
        m "ckpt.image_mb" "MB" (v "ckpt.image_bytes" /. 1e6);
        m "ckpt.delta_ratio" "ratio" (ratio (sum "ckpt.delta_bytes") (sum "ckpt.delta_full_bytes"));
        m "ckpt.decode_mb_per_s" "MB/s" (v "decode_mb_per_s");
        m "obs.trace_overhead_s" "s" (tr.Bench.host_s -. plain.Bench.host_s);
        m "obs.export_s" "s" (v "export_s");
        m "obs.spans" "count" (v "spans");
        m "host.alloc_mwords" "Mwords" (plain.Bench.alloc /. 1e6);
        m "host.major_collections" "count" (float_of_int plain.Bench.majors);
        m "unattributed_host_s" "s" (Bench.unattributed tr);
        m "unlabeled_host_s" "s" tr.Bench.unlabeled_s ]
  in
  Printf.printf "%s traced: host %.3f s (cpu %.3f s), untraced host %.3f s\n" W.name
    tr.Bench.host_s tr.Bench.host_cpu_s plain.Bench.host_s;
  (attempted, failed, metrics)

(* --- command line ------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs derive from");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match
      List.find_opt (fun (module W : Bench.WORKLOAD) -> W.name = !workload) workloads
    with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  match
    if !trace = 0 then end_to_end w ~name:!workload ~seed:!seed ~seconds:!seconds
    else per_layer w ~seed:!seed
  with
  | attempted, failed, metrics ->
    let bad = List.filter (fun x -> not (Float.is_finite x.m_value)) metrics in
    List.iter (fun x -> Printf.printf "FAILED: %s is not finite\n" x.m_name) bad;
    let metrics =
      List.map (fun x -> if Float.is_finite x.m_value then x else { x with m_value = 0.0 }) metrics
    in
    let failed = failed + List.length bad in
    report ~attempted:(attempted + List.length bad) ~failed metrics;
    exit (if failed = 0 then 0 else 1)
  | exception e ->
    (* OCAMLRUNPARAM=b adds where it was raised *)
    Printf.printf "FAILED: %s\n%s" (Printexc.to_string e) (Printexc.get_backtrace ());
    report ~attempted:1 ~failed:1 [];
    exit 1
