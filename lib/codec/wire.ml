let format_version = 2
let magic = "ZPC1"

(* Node tags.  Ints are split into small non-negative (inline) and LEB128
   zigzag forms to keep typical images compact. *)
let t_unit = 0x00
let t_false = 0x01
let t_true = 0x02
let t_int = 0x03
let t_float = 0x04
let t_str = 0x05
let t_f64s = 0x06
let t_list = 0x07
let t_assoc = 0x08
let t_tag = 0x09
let t_smallint = 0x80 (* 0x80 + n for n in [0,0x7f) *)

let put_varint buf n =
  (* LEB128 on the zigzag encoding so negative ints stay short.  The zigzag
     pattern is treated as a raw 63-bit word: [lsr] shifts in zeros, so the
     loop terminates even for patterns with the top bit set (e.g. min_int). *)
  let z = (n lsl 1) lxor (n asr 62) in
  let rec go z =
    if z land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr (z land 0x7f))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (z land 0x7f)));
      go (z lsr 7)
    end
  in
  go z

let rec encode_raw buf (v : Value.t) =
  match v with
  | Unit -> Buffer.add_char buf (Char.chr t_unit)
  | Bool false -> Buffer.add_char buf (Char.chr t_false)
  | Bool true -> Buffer.add_char buf (Char.chr t_true)
  | Int n ->
    if n >= 0 && n < 0x7f then Buffer.add_char buf (Char.chr (t_smallint + n))
    else begin
      Buffer.add_char buf (Char.chr t_int);
      put_varint buf n
    end
  | Float f ->
    Buffer.add_char buf (Char.chr t_float);
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
    Buffer.add_char buf (Char.chr t_str);
    put_varint buf (String.length s);
    Buffer.add_string buf s
  | F64s a ->
    Buffer.add_char buf (Char.chr t_f64s);
    put_varint buf (Array.length a);
    Array.iter (fun f -> Buffer.add_int64_le buf (Int64.bits_of_float f)) a
  | List xs ->
    Buffer.add_char buf (Char.chr t_list);
    put_varint buf (List.length xs);
    List.iter (encode_raw buf) xs
  | Assoc kvs ->
    Buffer.add_char buf (Char.chr t_assoc);
    put_varint buf (List.length kvs);
    List.iter
      (fun (k, v) ->
        put_varint buf (String.length k);
        Buffer.add_string buf k;
        encode_raw buf v)
      kvs
  | Tag (name, v) ->
    Buffer.add_char buf (Char.chr t_tag);
    put_varint buf (String.length name);
    Buffer.add_string buf name;
    encode_raw buf v

(* Decoding reads through a cursor, so the checks below are shared by the
   decoder that builds values and the skipper that only validates. *)
type cursor = { s : string; mutable pos : int }

(* [n] more bytes must be available at the cursor; written so that a huge
   [n] read from a corrupt length cannot overflow the comparison *)
let need c n =
  if n > String.length c.s - c.pos then Value.decode_error "truncated stream at %d" c.pos

let read_byte c =
  need c 1;
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  b

let rec read_zigzag c acc shift =
  if c.pos >= String.length c.s then Value.decode_error "truncated varint";
  let b = Char.code (String.unsafe_get c.s c.pos) in
  c.pos <- c.pos + 1;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then acc else read_zigzag c acc (shift + 7)

let read_varint c =
  let z = read_zigzag c 0 0 in
  (z lsr 1) lxor (-(z land 1))

(* A length prefix followed by [n * width] payload bytes, all present. *)
let read_len c ~width what =
  let n = read_varint c in
  if n < 0 then Value.decode_error "negative %s length" what;
  if n > (String.length c.s - c.pos) / width then
    Value.decode_error "truncated stream at %d" c.pos;
  n

let read_f64 c =
  need c 8;
  let f = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  f

let read_str c =
  let n = read_len c ~width:1 "str" in
  let str = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  str

let unknown_tag c tag = Value.decode_error "unknown wire tag 0x%02x at %d" tag (c.pos - 1)

let rec read_value c : Value.t =
  let tag = read_byte c in
  if tag >= t_smallint then Value.Int (tag - t_smallint)
  else if tag = t_unit then Value.Unit
  else if tag = t_false then Value.Bool false
  else if tag = t_true then Value.Bool true
  else if tag = t_int then Value.Int (read_varint c)
  else if tag = t_float then Value.Float (read_f64 c)
  else if tag = t_str then Value.Str (read_str c)
  else if tag = t_f64s then begin
    let n = read_len c ~width:8 "f64s" in
    Value.F64s (Array.init n (fun _ -> read_f64 c))
  end
  else if tag = t_list then begin
    let n = read_len c ~width:1 "list" in
    let rec go acc i = if i = 0 then List.rev acc else go (read_value c :: acc) (i - 1) in
    Value.List (go [] n)
  end
  else if tag = t_assoc then begin
    let n = read_len c ~width:1 "assoc" in
    let rec go acc i =
      if i = 0 then List.rev acc
      else
        let k = read_str c in
        let v = read_value c in
        go ((k, v) :: acc) (i - 1)
    in
    Value.Assoc (go [] n)
  end
  else if tag = t_tag then begin
    let name = read_str c in
    Value.Tag (name, read_value c)
  end
  else unknown_tag c tag

(* Advance past one value, making every check [read_value] makes, without
   building it. *)
let rec skip_value c =
  let tag = read_byte c in
  if tag >= t_smallint || tag = t_unit || tag = t_false || tag = t_true then ()
  else if tag = t_int then ignore (read_varint c : int)
  else if tag = t_float then begin
    need c 8;
    c.pos <- c.pos + 8
  end
  else if tag = t_str then skip_bytes c
  else if tag = t_f64s then begin
    let n = read_len c ~width:8 "f64s" in
    c.pos <- c.pos + (8 * n)
  end
  else if tag = t_list then
    for _ = 1 to read_len c ~width:1 "list" do
      skip_value c
    done
  else if tag = t_assoc then
    for _ = 1 to read_len c ~width:1 "assoc" do
      skip_bytes c;
      skip_value c
    done
  else if tag = t_tag then begin
    skip_bytes c;
    skip_value c
  end
  else unknown_tag c tag

and skip_bytes c =
  let n = read_len c ~width:1 "str" in
  c.pos <- c.pos + n

let decode_raw s off =
  let c = { s; pos = off } in
  let v = read_value c in
  (v, c.pos)

let header_size = String.length magic + 1

let encode v =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr format_version);
  encode_raw buf v;
  Buffer.contents buf

(* A cursor just past a valid header. *)
let open_stream s =
  if String.length s < header_size then Value.decode_error "stream too short";
  if not (String.equal (String.sub s 0 4) magic) then Value.decode_error "bad magic";
  let version = Char.code s.[4] in
  if version <> format_version then
    Value.decode_error "format version mismatch: got %d, want %d" version format_version;
  { s; pos = header_size }

let close_stream c =
  if c.pos <> String.length c.s then Value.decode_error "trailing garbage at %d" c.pos

let decode s =
  let c = open_stream s in
  let v = read_value c in
  close_stream c;
  v

(* Does the [n]-byte key at the cursor equal one of [keys]?  Compared in
   place: no key string is built for the fields that are skipped. *)
let rec same_bytes s off k i n =
  i = n || (k.[i] = s.[off + i] && same_bytes s off k (i + 1) n)

let rec key_at c n = function
  | [] -> false
  | k :: ks -> (String.length k = n && same_bytes c.s c.pos k 0 n) || key_at c n ks

let decode_fields s keys =
  let c = open_stream s in
  let kvs =
    if c.pos < String.length s && Char.code s.[c.pos] = t_assoc then begin
      c.pos <- c.pos + 1;
      let rec go acc i =
        if i = 0 then List.rev acc
        else
          let n = read_len c ~width:1 "str" in
          if key_at c n keys then begin
            let k = String.sub s c.pos n in
            c.pos <- c.pos + n;
            let v = read_value c in
            go ((k, v) :: acc) (i - 1)
          end
          else begin
            c.pos <- c.pos + n;
            skip_value c;
            go acc (i - 1)
          end
      in
      go [] (read_len c ~width:1 "assoc")
    end
    else begin
      (* not a record: nothing to select, but the stream is still checked *)
      skip_value c;
      []
    end
  in
  close_stream c;
  Value.Assoc kvs

(* Size arithmetic mirroring [encode_raw] byte for byte. *)
let varint_size n =
  let rec go z k = if z land lnot 0x7f = 0 then k else go (z lsr 7) (k + 1) in
  go ((n lsl 1) lxor (n asr 62)) 1

let bytes_size n = varint_size n + n

let rec encoded_size (v : Value.t) =
  match v with
  | Unit | Bool _ -> 1
  | Int n -> if n >= 0 && n < 0x7f then 1 else 1 + varint_size n
  | Float _ -> 9
  | Str s -> 1 + bytes_size (String.length s)
  | F64s a -> 1 + varint_size (Array.length a) + (8 * Array.length a)
  | List xs ->
    List.fold_left (fun acc x -> acc + encoded_size x) (1 + varint_size (List.length xs)) xs
  | Assoc kvs ->
    List.fold_left
      (fun acc (k, x) -> acc + bytes_size (String.length k) + encoded_size x)
      (1 + varint_size (List.length kvs))
      kvs
  | Tag (name, x) -> 1 + bytes_size (String.length name) + encoded_size x
