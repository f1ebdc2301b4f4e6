(** The pod's virtual private namespace (paper section 3).

    Identifiers visible inside a pod are virtual: PIDs and network addresses
    stay constant for the life of the application while the namespace remaps
    them to the real identifiers of whatever node the pod currently runs on.
    This decouples applications from the host and makes migration to nodes
    with different PID spaces and IP subnets possible. *)

module Addr = Zapc_simnet.Addr

(** {1 The vip directory}

    One per cluster: the live (vip, rip) binding of every pod instance and
    the latest gratuitous-ARP rebind of every vip, stamped by one clock.
    Namespaces consult it at lookup time instead of being rewritten, so a
    rebind costs O(1) however many namespaces know the vip, and a restored
    pod's map shares the live list instead of copying it. *)

type directory
type binding
(** A live pod instance's entry in the directory. *)

val directory : unit -> directory

val enter : directory -> pod_id:int -> vip:Addr.ip -> rip:Addr.ip -> binding
(** A pod instance came up at [rip]; it supersedes any earlier live
    instance of [pod_id] (a pod lives on one node at a time). *)

val leave : directory -> binding -> unit
(** The instance is gone; a no-op if a newer instance superseded it. *)

val rebind_vip : directory -> vip:Addr.ip -> rip:Addr.ip -> unit
(** Gratuitous-ARP-style update: from now on every namespace whose map,
    installed before this call, has an entry for [vip] resolves it to
    [rip].  Namespaces without the entry are untouched, and a map
    installed later shadows the rebind. *)

(** {1 Namespaces} *)

type t

val create : directory -> t
val directory_of : t -> directory
val next_vpid : t -> int
val set_next_vpid : t -> int -> unit

(** {1 PIDs} *)

val fresh_vpid : t -> int -> int
(** [fresh_vpid t rpid] assigns the next virtual pid to a real pid. *)

val bind_vpid : t -> vpid:int -> rpid:int -> unit
(** Restore path: re-establish a checkpointed vpid binding. *)

val rpid_of_vpid : t -> int -> int option
val vpid_of_rpid : t -> int -> int option
val forget_rpid : t -> int -> unit
val vpids : t -> int list

(** {1 Network addresses} *)

val set_vip_map : ?live:bool -> t -> (Addr.ip * Addr.ip) list -> unit
(** Install the vip -> rip map; lookups take the first entry in list
    order.  With [~live:true] the directory's live bindings, as they stand
    now, follow the map (they are shared, not copied). *)

val rip_of_vip : t -> Addr.ip -> Addr.ip
(** Unknown addresses pass through unchanged (out-of-cluster traffic is out
    of scope, per the paper). *)

val vip_of_rip : t -> Addr.ip -> Addr.ip
val translate_addr_out : t -> Addr.t -> Addr.t
val translate_addr_in : t -> Addr.t -> Addr.t
val to_value : t -> Zapc_codec.Value.t
