(* Minimal JSON: a value type, a printer, and a recursive-descent
   parser. Zero dependencies by design — the observability layer must
   not pull a JSON package into the substrate, and the CI validator
   needs to *parse* what the sinks emit with the same code.

   Both directions sit on the trace export/reload path, so they avoid
   per-byte allocation: the printer copies escape-free runs of a
   string whole and formats numbers without Printf's interpreter, and
   the parser works on byte offsets into the source — strings without
   escapes are one slice, numbers are scanned and converted in place. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ----------------------------------------------------------- output *)

let hex_digits = "0123456789abcdef"

(* [s.[start, i)] is a run of bytes that need no escape *)
let rec escape_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s start (i - start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf hex_digits.[Char.code c lsr 4];
          Buffer.add_char buf hex_digits.[Char.code c land 0xF]);
      escape_from buf s (i + 1) (i + 1)
    end
    else escape_from buf s start (i + 1)

let escape buf s =
  Buffer.add_char buf '"';
  escape_from buf s 0 0;
  Buffer.add_char buf '"'

let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

(* the C primitive behind [Printf "%.12g"], without the format
   interpreter around it *)
external format_float : string -> float -> string = "caml_format_float"

let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if f = Float.infinity then Buffer.add_string buf "1e308"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e308"
  else
    let s = format_float "%.12g" f in
    Buffer.add_string buf s;
    (* keep a float marker so the value parses back as a float *)
    if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
      Buffer.add_string buf ".0"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List xs ->
      Buffer.add_char buf '[';
      emit_items buf xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      emit_fields buf fields;
      Buffer.add_char buf '}'

and emit_items buf = function
  | [] -> ()
  | x :: rest ->
      emit buf x;
      (match rest with [] -> () | _ -> Buffer.add_char buf ',');
      emit_items buf rest

and emit_fields buf = function
  | [] -> ()
  | (k, v) :: rest ->
      escape buf k;
      Buffer.add_char buf ':';
      emit buf v;
      (match rest with [] -> () | _ -> Buffer.add_char buf ',');
      emit_fields buf rest

let to_buffer = emit

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let pp ppf v = Fmt.string ppf (to_string v)

(* ---------------------------------------------------------- parsing *)

exception Malformed of string

(* [src.[pos, stop)] is the text being parsed; error offsets are
   reported relative to [base], the start of that text *)
type cursor = { src : string; mutable pos : int; stop : int; base : int }

let fail cur msg = raise (Malformed (Printf.sprintf "%s at byte %d" msg (cur.pos - cur.base)))

let at_end cur = cur.pos >= cur.stop

(* the current byte; callers check [at_end] first *)
let cur_char cur = String.unsafe_get cur.src cur.pos

let is_digit c = c >= '0' && c <= '9'

let digit_at cur = (not (at_end cur)) && is_digit (cur_char cur)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* the scanning loops below keep the offset in a local and store it
   back once *)
let skip_ws_run cur =
  let src = cur.src and stop = cur.stop in
  let i = ref cur.pos in
  while !i < stop && is_ws (String.unsafe_get src !i) do
    incr i
  done;
  cur.pos <- !i

(* compact input has no whitespace: check inline, loop out of line *)
let[@inline] skip_ws cur = if (not (at_end cur)) && is_ws (cur_char cur) then skip_ws_run cur

let skip_digits cur =
  let src = cur.src and stop = cur.stop in
  let i = ref cur.pos in
  while !i < stop && is_digit (String.unsafe_get src !i) do
    incr i
  done;
  cur.pos <- !i

let expect cur c =
  if (not (at_end cur)) && cur_char cur = c then cur.pos <- cur.pos + 1
  else fail cur (Printf.sprintf "expected '%c'" c)

let rec equal_from src start s i =
  i = String.length s
  || (String.unsafe_get src (start + i) = String.unsafe_get s i && equal_from src start s (i + 1))

let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= cur.stop && equal_from cur.src cur.pos word 0 then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected '%s'" word)

(* UTF-8 encode one Unicode scalar value *)
let add_utf8 buf u =
  let byte b = Buffer.add_char buf (Char.unsafe_chr b) in
  if u < 0x80 then byte u
  else if u < 0x800 then begin
    byte (0xC0 lor (u lsr 6));
    byte (0x80 lor (u land 0x3F))
  end
  else if u < 0x10000 then begin
    byte (0xE0 lor (u lsr 12));
    byte (0x80 lor ((u lsr 6) land 0x3F));
    byte (0x80 lor (u land 0x3F))
  end
  else begin
    byte (0xF0 lor (u lsr 18));
    byte (0x80 lor ((u lsr 12) land 0x3F));
    byte (0x80 lor ((u lsr 6) land 0x3F));
    byte (0x80 lor (u land 0x3F))
  end

let hex_value = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

(* the four hex digits of a \u escape, the cursor just past the 'u' *)
let read_hex4 cur =
  if cur.pos + 4 > cur.stop then fail cur "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d = hex_value cur.src.[cur.pos + i] in
    if d < 0 then fail cur "bad \\u escape";
    v := (!v lsl 4) lor d
  done;
  cur.pos <- cur.pos + 4;
  !v

(* a \u escape, the cursor just past the 'u'; a high surrogate must
   be followed by an escaped low one, and the pair is one scalar *)
let read_unicode_escape cur =
  let u = read_hex4 cur in
  if u >= 0xDC00 && u <= 0xDFFF then
    fail cur (Printf.sprintf "lone low surrogate \\u%04x" u)
  else if u >= 0xD800 && u <= 0xDBFF then begin
    let lo =
      if cur.pos + 2 <= cur.stop && cur.src.[cur.pos] = '\\' && cur.src.[cur.pos + 1] = 'u'
      then begin
        cur.pos <- cur.pos + 2;
        read_hex4 cur
      end
      else -1
    in
    if lo < 0xDC00 || lo > 0xDFFF then
      fail cur (Printf.sprintf "lone high surrogate \\u%04x" u);
    0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else u

(* the rest of a string that has escapes: [buf] holds everything
   before the cursor *)
let rec parse_escaped cur buf =
  if at_end cur then fail cur "unterminated string";
  match cur_char cur with
  | '"' ->
      cur.pos <- cur.pos + 1;
      Buffer.contents buf
  | '\\' ->
      cur.pos <- cur.pos + 1;
      if at_end cur then fail cur "unterminated escape";
      let c = cur_char cur in
      cur.pos <- cur.pos + 1;
      (match c with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' -> add_utf8 buf (read_unicode_escape cur)
      | _ -> fail cur "unknown escape");
      parse_escaped cur buf
  | _ ->
      let start = cur.pos in
      while (not (at_end cur)) && cur_char cur <> '"' && cur_char cur <> '\\' do
        cur.pos <- cur.pos + 1
      done;
      Buffer.add_substring buf cur.src start (cur.pos - start);
      parse_escaped cur buf

(* Short escape-free strings — object keys, event names, categories —
   repeat from line to line, so they come from a small direct-mapped
   cache instead of a fresh copy each. A slot is only returned after
   its bytes compare equal, so racing domains can at worst miss. The
   cache is made on first use (a race makes two, one is dropped). *)
let intern_max = 24

let intern_slots = 512

let intern_cache = ref [||]

let cache () =
  match !intern_cache with
  | [||] ->
      let c = Array.make intern_slots "" in
      intern_cache := c;
      c
  | c -> c

let slice_equal src start len s = String.length s = len && equal_from src start s 0

let slice cur start len hash =
  if len > intern_max then String.sub cur.src start len
  else
    let cache = cache () in
    let slot = hash land (intern_slots - 1) in
    let cached = cache.(slot) in
    if slice_equal cur.src start len cached then cached
    else begin
      let s = String.sub cur.src start len in
      cache.(slot) <- s;
      s
    end

let parse_string cur =
  expect cur '"';
  let start = cur.pos in
  let src = cur.src and stop = cur.stop in
  let i = ref start and hash = ref 0 in
  while
    !i < stop
    &&
    let c = String.unsafe_get src !i in
    c <> '"' && c <> '\\'
  do
    hash := (!hash * 31) + Char.code (String.unsafe_get src !i);
    incr i
  done;
  cur.pos <- !i;
  if at_end cur then fail cur "unterminated string";
  if cur_char cur = '"' then begin
    cur.pos <- cur.pos + 1;
    slice cur start (cur.pos - 1 - start) (!hash lxor (!hash lsr 9))
  end
  else begin
    let buf = Buffer.create (cur.pos - start + 16) in
    Buffer.add_substring buf cur.src start (cur.pos - start);
    parse_escaped cur buf
  end

(* 10^i for 0 <= i <= 22, each one exactly a double. A match on
   static constants, not a table, so a program that never touches
   JSON carries no heap for it. *)
let pow10 = function
  | 0 -> 1e0 | 1 -> 1e1 | 2 -> 1e2 | 3 -> 1e3 | 4 -> 1e4 | 5 -> 1e5 | 6 -> 1e6 | 7 -> 1e7
  | 8 -> 1e8 | 9 -> 1e9 | 10 -> 1e10 | 11 -> 1e11 | 12 -> 1e12 | 13 -> 1e13 | 14 -> 1e14
  | 15 -> 1e15 | 16 -> 1e16 | 17 -> 1e17 | 18 -> 1e18 | 19 -> 1e19 | 20 -> 1e20 | 21 -> 1e21
  | _ -> 1e22

(* the value of the decimal digits in [src.[a, b)], skipping one '.' *)
let digits_value src a b =
  let v = ref 0 in
  for i = a to b - 1 do
    let c = String.unsafe_get src i in
    if c <> '.' then v := (!v * 10) + (Char.code c - 48)
  done;
  !v

(* RFC 8259 §6: -? (0 | [1-9][0-9]* ) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
   A number with a fraction or exponent is a [Float]; an integer that
   overflows [int] falls back to [Float] too. *)
let parse_number cur =
  let src = cur.src in
  let start = cur.pos in
  let neg = (not (at_end cur)) && cur_char cur = '-' in
  if neg then cur.pos <- cur.pos + 1;
  if not (digit_at cur) then fail cur "expected a number";
  let int_start = cur.pos in
  if cur_char cur = '0' then begin
    cur.pos <- cur.pos + 1;
    if digit_at cur then fail cur "leading zero in number"
  end
  else skip_digits cur;
  let int_end = cur.pos in
  let frac_digits =
    if (not (at_end cur)) && cur_char cur = '.' then begin
      cur.pos <- cur.pos + 1;
      let s = cur.pos in
      skip_digits cur;
      if cur.pos = s then fail cur "expected a digit after '.'";
      cur.pos - s
    end
    else -1
  in
  let mant_end = cur.pos in
  (* explicit exponent, saturated: past 10^6 only the slow path is exact *)
  let has_exp = (not (at_end cur)) && (cur_char cur = 'e' || cur_char cur = 'E') in
  let exp =
    if has_exp then begin
      cur.pos <- cur.pos + 1;
      let eneg = (not (at_end cur)) && cur_char cur = '-' in
      if (not (at_end cur)) && (cur_char cur = '-' || cur_char cur = '+') then
        cur.pos <- cur.pos + 1;
      let s = cur.pos in
      let v = ref 0 in
      while digit_at cur do
        v := min 1_000_000 ((!v * 10) + (Char.code (cur_char cur) - 48));
        cur.pos <- cur.pos + 1
      done;
      if cur.pos = s then fail cur "expected a digit in exponent";
      if eneg then - !v else !v
    end
    else 0
  in
  if frac_digits < 0 && not has_exp then
    if int_end - int_start <= 18 then
      let v = digits_value src int_start int_end in
      Int (if neg then -v else v)
    else
      let text = String.sub src start (cur.pos - start) in
      match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
  else begin
    (* Clinger's fast path: a mantissa below 2^53 times an exact
       power of ten is one correctly rounded operation *)
    let first = ref int_start in
    while !first < mant_end && (src.[!first] = '0' || src.[!first] = '.') do
      incr first
    done;
    let sig_digits = mant_end - !first - if !first < int_end && frac_digits > 0 then 1 else 0 in
    let e = exp - max frac_digits 0 in
    if sig_digits <= 15 && e >= -22 && e <= 22 then
      let m = float_of_int (digits_value src !first mant_end) in
      let f = if e >= 0 then m *. pow10 e else m /. pow10 (-e) in
      Float (if neg then -.f else f)
    else Float (float_of_string (String.sub src start (cur.pos - start)))
  end

(* after an item or field: [true] past a ',', [false] past [close] *)
let more cur close =
  skip_ws cur;
  if at_end cur then fail cur (Printf.sprintf "expected ',' or '%c'" close);
  let c = cur_char cur in
  cur.pos <- cur.pos + 1;
  if c = ',' then true
  else if c = close then false
  else begin
    cur.pos <- cur.pos - 1;
    fail cur (Printf.sprintf "expected ',' or '%c'" close)
  end

(* Items and fields are consed on the way back out, in order, for the
   first [in_order] of a sequence; a longer one collects the rest in
   reverse and flips it once, so stack depth stays bounded. *)
let in_order = 64

let rec parse_value cur =
  skip_ws cur;
  if at_end cur then fail cur "unexpected end of input";
  match cur_char cur with
  | 'n' -> literal cur "null" Null
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | '"' -> String (parse_string cur)
  | '[' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if (not (at_end cur)) && cur_char cur = ']' then begin
        cur.pos <- cur.pos + 1;
        List []
      end
      else List (parse_items cur 0)
  | '{' ->
      cur.pos <- cur.pos + 1;
      skip_ws cur;
      if (not (at_end cur)) && cur_char cur = '}' then begin
        cur.pos <- cur.pos + 1;
        Obj []
      end
      else Obj (parse_fields cur 0)
  | _ -> parse_number cur

(* at the [n]th item of a list, at least one to come *)
and parse_items cur n =
  let v = parse_value cur in
  if not (more cur ']') then [ v ]
  else if n < in_order then v :: parse_items cur (n + 1)
  else v :: List.rev (parse_items_rev cur [])

and parse_items_rev cur acc =
  let v = parse_value cur in
  if more cur ']' then parse_items_rev cur (v :: acc) else v :: acc

and parse_field cur =
  skip_ws cur;
  let k = parse_string cur in
  skip_ws cur;
  expect cur ':';
  (k, parse_value cur)

(* at the [n]th field of an object, at least one to come *)
and parse_fields cur n =
  let kv = parse_field cur in
  if not (more cur '}') then [ kv ]
  else if n < in_order then kv :: parse_fields cur (n + 1)
  else kv :: List.rev (parse_fields_rev cur [])

and parse_fields_rev cur acc =
  let kv = parse_field cur in
  if more cur '}' then parse_fields_rev cur (kv :: acc) else kv :: acc

let of_substring s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Json.of_substring: range outside the string";
  let cur = { src = s; pos; stop = pos + len; base = pos } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> cur.stop then Error "trailing garbage" else Ok v
  | exception Malformed msg -> Error msg

let of_string s = of_substring s ~pos:0 ~len:(String.length s)

(* --------------------------------------------------------- accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | String _ | List _ -> None

let to_int = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None

let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_list = function List xs -> Some xs | _ -> None

let to_str = function String s -> Some s | _ -> None
