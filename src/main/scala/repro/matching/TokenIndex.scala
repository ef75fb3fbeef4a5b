package repro.matching

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StructType

import repro.core.{DriverFrames, Tasks}
import repro.graph.ConnectedComponents

/** Records encoded once, for blocking and scoring (Frost pipeline steps 2
  * and 3, Section 1.2), built on the driver and broadcast once.
  *
  * Records are numbered `0 until n` in ascending ID order. For each scored
  * attribute the index holds every record's sorted token IDs (null for a
  * null value): the IDs of its [[Similarity.tokens]] in the one
  * [[Similarity.TokenDictionary]] of the dataset's tokens. For blocking it
  * holds CSR (compressed sparse row) postings of the kept blocks: the
  * blocking keys shared by 2 to `maxBlockSize` records, in key order, with
  * their members and, per record, the blocks it is in.
  *
  * A candidate pair is a pair of records sharing a kept block. Each is
  * emitted once, from its smallest shared block (comparison propagation,
  * Papadakis et al., WSDM 2011), so the tasks that emit the blocks' pairs
  * need no shuffle and no `distinct`.
  */
private[matching] final class TokenIndex private (
    val ids: Array[Long],
    val encoded: Array[Array[Array[Int]]],
    private[matching] val blockStart: Array[Int],
    private[matching] val blockMembers: Array[Int],
    private[matching] val recordStart: Array[Int],
    private[matching] val recordBlocks: Array[Int],
) extends Serializable {

  def blocks: Int = blockStart.length - 1

  /** `row(i, j)` for every candidate pair i < j whose smallest shared
    * block is in `[from, until)`, block by block.
    */
  def pairs(from: Int, until: Int)(row: (Int, Int) => Row): Iterator[Row] =
    Iterator.range(from, until).flatMap { blk =>
      val out = ArrayBuffer.empty[Row]
      val end = blockStart(blk + 1)
      var x = blockStart(blk)
      while (x < end) {
        var y = x + 1
        while (y < end) {
          val i = blockMembers(x); val j = blockMembers(y)
          if (firstSharedBlock(i, j) == blk) out += row(i, j)
          y += 1
        }
        x += 1
      }
      out
    }

  /** The smallest block both records are in, by one merge of their sorted
    * block lists; -1 when they share none.
    */
  private def firstSharedBlock(i: Int, j: Int): Int = {
    var p = recordStart(i); val pEnd = recordStart(i + 1)
    var q = recordStart(j); val qEnd = recordStart(j + 1)
    while (p < pEnd && q < qEnd) {
      val u = recordBlocks(p); val v = recordBlocks(q)
      if (u == v) return u
      if (u < v) p += 1 else q += 1
    }
    -1
  }

  /** A DataFrame of `row(i, j)` over every candidate pair, computed in
    * Spark tasks over ranges of blocks cut to about equal numbers of block
    * pairs. The index and `row` are broadcast once; `row` should capture
    * the index and what it reads, not an object holding more.
    */
  def frame(spark: SparkSession, schema: StructType)(row: (Int, Int) => Row): DataFrame = {
    val cuts = sliceCuts(2 * spark.sparkContext.defaultParallelism)
    val index = this
    DriverFrames.flat(spark, cuts.length - 1, schema)(s => index.pairs(cuts(s), cuts(s + 1))(row))
  }

  /** Block indices cutting `[0, blocks)` into at most `slices` ranges of
    * about equal Σ C(size, 2).
    */
  private def sliceCuts(slices: Int): Array[Int] = {
    val work = Array.tabulate(blocks) { b => val s = (blockStart(b + 1) - blockStart(b)).toLong; s * (s - 1) / 2 }
    val total = work.sum
    val cuts = ArrayBuffer(0)
    var acc = 0L
    var b = 0
    while (b < blocks) {
      acc += work(b)
      b += 1
      if (b < blocks && acc * slices >= total * cuts.length) cuts += b
    }
    (cuts += blocks).toArray
  }
}

private[matching] object TokenIndex {

  /** Index of `records` (a unique, non-null long `id` per record) over the
    * blocking attributes and the scored attributes, from one Spark job.
    * Each task tokenizes each value of its records once, numbering its
    * tokens locally ([[Part]]); the driver sorts all the tasks' tokens into
    * the dataset's [[Similarity.TokenDictionary]] and maps every task's
    * local IDs to the dictionary's, one part per core.
    *
    * @throws IllegalArgumentException naming the ID, if an ID is null or
    *         appears more than once
    */
  def apply(
      records: DataFrame,
      blockingAttrs: Seq[String],
      scoredAttrs: Seq[String],
      maxBlockSize: Int,
      vocab: Option[Set[String]],
  ): TokenIndex = {
    require(blockingAttrs.nonEmpty, "need at least one blocking attribute")
    val attrs = (blockingAttrs ++ scoredAttrs).distinct
    val blockingCols = blockingAttrs.map(attrs.indexOf).toArray
    val scoredCols = scoredAttrs.map(attrs.indexOf).toArray
    val width = attrs.length

    val parts = records.select(col("id").cast("long") +: attrs.map(a => col(a).cast("string")): _*).rdd
      .mapPartitions(rows => Iterator(Part.of(rows, width))).collect()
    require(!parts.exists(_.nullId), "a record has a null id")
    val ids = ConnectedComponents.sortedUnique(parts.flatMap(_.ids))(id => s"record id $id appears more than once")

    val sorted = parts.flatMap(_.tokens).distinct
    java.util.Arrays.parallelSort(sorted)
    val dict = Similarity.dictionary(sorted, vocab)
    val keys = dict.blockingKeys

    // Per record in ID order, per attribute: its sorted token IDs (null for
    // a null value). Each part places its own records, one part per task on
    // the common pool.
    val values = Array.ofDim[Array[Int]](width, ids.length)
    Tasks.inTasks(parts.length, parallel = true) { p =>
      val part = parts(p)
      val toId = part.tokens.map(t => dict.ids(java.util.Arrays.binarySearch(sorted, t, Ordering.String)))
      var v = 0; var f = 0
      part.ids.foreach { id =>
        val r = java.util.Arrays.binarySearch(ids, id)
        var k = 0
        while (k < width) {
          val len = part.lengths(v)
          if (len >= 0) {
            val tokenIds = java.util.Arrays.copyOfRange(part.tokenIds, f, f + len)
            java.util.Arrays.setAll(tokenIds, (q: Int) => toId(tokenIds(q)))
            java.util.Arrays.sort(tokenIds)
            values(k)(r) = tokenIds
            f += len
          }
          v += 1
          k += 1
        }
      }
    }

    val encoded = scoredCols.map(values(_))
    val recordKeys = Array.tabulate(ids.length)(r => blockingKeys(blockingCols.map(values(_)(r)), keys))
    postings(ids, encoded, recordKeys, keys, maxBlockSize)
  }

  /** The distinct blocking keys of one record's `values` (sorted, distinct
    * token IDs each, null for a null value), ascending. The keys are the IDs
    * in `[0, keys)`, so they are one run of each value: the runs are
    * concatenated, sorted and de-duplicated as primitives.
    */
  private def blockingKeys(values: Array[Array[Int]], keys: Int): Array[Int] = {
    def firstAtLeast(v: Array[Int], t: Int): Int = {
      val p = java.util.Arrays.binarySearch(v, t)
      if (p >= 0) p else -p - 1
    }
    val runs = new ArrayBuilder.ofInt
    values.foreach { v =>
      if (v != null) { val from = firstAtLeast(v, 0); runs.addAll(v, from, firstAtLeast(v, keys) - from) }
    }
    val all = runs.result()
    java.util.Arrays.sort(all)
    var distinct = 0
    var k = 0
    while (k < all.length) {
      if (distinct == 0 || all(k) != all(distinct - 1)) { all(distinct) = all(k); distinct += 1 }
      k += 1
    }
    if (distinct == all.length) all else java.util.Arrays.copyOf(all, distinct)
  }

  /** What one task returns for its records: its distinct tokens, in the
    * order it met them; the records' IDs, and whether one was null; for each
    * record and each attribute in turn, the number of distinct tokens of the
    * value (-1 for null) in `lengths`, and their indices in `tokens` in
    * `tokenIds`.
    */
  private final case class Part(
      tokens: Array[String], ids: Array[Long], nullId: Boolean, lengths: Array[Int], tokenIds: Array[Int])

  private object Part {

    /** The part of `rows`: an ID and then `width` string values each. */
    def of(rows: Iterator[Row], width: Int): Part = {
      val local = new java.util.HashMap[String, Integer]
      val tokens = ArrayBuffer.empty[String]
      var seenIn = new Array[Int](1024) // per local ID, the last value holding it
      var value = 0
      val ids = new ArrayBuilder.ofLong
      var nullId = false
      val lengths = new ArrayBuilder.ofInt
      val tokenIds = new ArrayBuilder.ofInt
      rows.foreach { r =>
        if (r.isNullAt(0)) nullId = true else ids += r.getLong(0)
        var k = 1
        while (k <= width) {
          val s = r.getString(k)
          if (s == null) lengths += -1
          else {
            value += 1
            var len = 0
            Similarity.foreachToken(s) { t =>
              val known = local.get(t)
              val id = if (known != null) known.intValue else {
                local.put(t, tokens.length)
                tokens += t
                if (tokens.length > seenIn.length) seenIn = java.util.Arrays.copyOf(seenIn, 2 * seenIn.length)
                tokens.length - 1
              }
              if (seenIn(id) != value) { seenIn(id) = value; tokenIds += id; len += 1 }
            }
            lengths += len
          }
          k += 1
        }
      }
      Part(tokens.toArray, ids.result(), nullId, lengths.result(), tokenIds.result())
    }
  }

  /** The index with the CSR postings of the keys held by 2 to
    * `maxBlockSize` records; `recordKeys(i)` are record i's keys, ascending.
    */
  private[matching] def postings(
      ids: Array[Long],
      encoded: Array[Array[Array[Int]]],
      recordKeys: Array[Array[Int]],
      keys: Int,
      maxBlockSize: Int,
  ): TokenIndex = {
    val size = new Array[Int](keys)
    recordKeys.foreach(_.foreach(t => size(t) += 1))
    // Kept keys are numbered as blocks in key order, so each record's block
    // list is ascending like its key list.
    val blockOf = Array.fill(keys)(-1)
    val blockStart = ArrayBuffer(0)
    var t = 0
    while (t < keys) {
      if (size(t) >= 2 && size(t) <= maxBlockSize) {
        blockOf(t) = blockStart.length - 1
        blockStart += blockStart.last + size(t)
      }
      t += 1
    }
    val fill = blockStart.toArray
    val blockMembers = new Array[Int](fill.last)
    val recordStart = new Array[Int](ids.length + 1)
    val recordBlocks = new ArrayBuilder.ofInt
    var i = 0
    while (i < ids.length) {
      recordKeys(i).foreach { key =>
        val b = blockOf(key)
        if (b >= 0) {
          blockMembers(fill(b)) = i
          fill(b) += 1
          recordBlocks += b
          recordStart(i + 1) += 1
        }
      }
      recordStart(i + 1) += recordStart(i)
      i += 1
    }
    new TokenIndex(ids, encoded, blockStart.toArray, blockMembers, recordStart, recordBlocks.result())
  }
}
