package repro.matching

import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StructType

import repro.core.{DriverFrames, Tasks}
import repro.graph.ConnectedComponents

/** Records encoded once, for blocking and scoring (Frost pipeline steps 2
  * and 3, Section 1.2), built on the driver from one Spark job.
  *
  * Records are numbered `0 until n` in ascending ID order, and tokens by
  * their rank among the dataset's distinct [[Similarity.tokens]]: `tokens`
  * holds them in ascending order, so the token of ID r is `tokens(r)`. For
  * each scored attribute the index holds every record's sorted token IDs
  * (null for a null value), and for each record the distinct IDs of its
  * blocking attributes' tokens, ascending.
  *
  * The index reads no vocabulary. A table's vocabulary is a mask over the
  * IDs ([[Similarity.known]]), read by [[Similarity.knownJaccard]] and by
  * [[postings]], so one index serves any number of vocabularies.
  */
private[matching] final class TokenIndex private[matching] (
    val ids: Array[Long],
    val tokens: Array[String],
    val encoded: Array[Array[Array[Int]]],
    val blockingTokens: Array[Array[Int]],
) {

  /** The postings of the blocks of one table: one block per token that
    * `known` lets form blocks ([[Blocking.isKey]]) and that 2 to
    * `maxBlockSize` records hold.
    */
  def postings(known: Array[Int], maxBlockSize: Int): Postings =
    Postings(blockingTokens, Blocking.isKey(tokens, known), maxBlockSize)
}

private[matching] object TokenIndex {

  /** Index of `records` (a unique, non-null long `id` per record) over the
    * blocking attributes and the scored attributes, from one Spark job.
    * Each task tokenizes each value of its records once, numbering its
    * tokens locally ([[Part]]); the driver sorts all the tasks' tokens and
    * maps every task's local IDs to their ranks, one part per core.
    *
    * @throws IllegalArgumentException naming the ID, if an ID is null or
    *         appears more than once
    */
  def apply(records: DataFrame, blockingAttrs: Seq[String], scoredAttrs: Seq[String]): TokenIndex = {
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

    // Per record in ID order, per attribute: its sorted token IDs (null for
    // a null value). Each part places its own records, one part per task on
    // the common pool.
    val values = Array.ofDim[Array[Int]](width, ids.length)
    Tasks.inTasks(parts.length, parallel = true) { p =>
      val part = parts(p)
      val toId = part.tokens.map(t => java.util.Arrays.binarySearch(sorted, t, Ordering.String))
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

    val blockingTokens = Array.tabulate(ids.length)(r => union(blockingCols.map(values(_)(r))))
    new TokenIndex(ids, sorted, scoredCols.map(values(_)), blockingTokens)
  }

  /** The distinct IDs of one record's `values` (sorted, distinct token IDs
    * each, null for a null value), ascending: the one non-null value itself,
    * else the values concatenated, sorted and de-duplicated as primitives.
    */
  private def union(values: Array[Array[Int]]): Array[Int] = {
    val present = values.filter(_ != null)
    if (present.length == 1) present(0)
    else {
      val runs = new ArrayBuilder.ofInt
      present.foreach(runs.addAll(_))
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
}

/** CSR (compressed sparse row) postings of one table's kept blocks: the
  * blocks in token order, with their members and, per record, the blocks
  * it is in, ascending.
  *
  * A candidate pair is a pair of records sharing a kept block. Each is
  * emitted once, from its smallest shared block (comparison propagation,
  * Papadakis et al., WSDM 2011), so the tasks that emit the blocks' pairs
  * need no shuffle and no `distinct`.
  */
private[matching] final class Postings private (
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
    * pairs. The postings and `row` are broadcast once; `row` should capture
    * the arrays it reads, not an object holding more.
    */
  def frame(spark: SparkSession, schema: StructType)(row: (Int, Int) => Row): DataFrame = {
    val cuts = sliceCuts(2 * spark.sparkContext.defaultParallelism)
    val postings = this
    DriverFrames.flat(spark, cuts.length - 1, schema)(s => postings.pairs(cuts(s), cuts(s + 1))(row))
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

private[matching] object Postings {

  /** The postings of the tokens `isKey` marks that 2 to `maxBlockSize`
    * records hold; `recordTokens(i)` are record i's token IDs, ascending.
    */
  def apply(recordTokens: Array[Array[Int]], isKey: Array[Boolean], maxBlockSize: Int): Postings = {
    val size = new Array[Int](isKey.length)
    recordTokens.foreach(_.foreach(t => if (isKey(t)) size(t) += 1))
    // Kept tokens are numbered as blocks in token order, so each record's
    // block list is ascending like its token list.
    val blockOf = Array.fill(isKey.length)(-1)
    val blockStart = ArrayBuffer(0)
    var t = 0
    while (t < isKey.length) {
      if (size(t) >= 2 && size(t) <= maxBlockSize) {
        blockOf(t) = blockStart.length - 1
        blockStart += blockStart.last + size(t)
      }
      t += 1
    }
    val fill = blockStart.toArray
    val blockMembers = new Array[Int](fill.last)
    val recordStart = new Array[Int](recordTokens.length + 1)
    val recordBlocks = new ArrayBuilder.ofInt
    var i = 0
    while (i < recordTokens.length) {
      recordTokens(i).foreach { token =>
        val b = blockOf(token)
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
    new Postings(blockStart.toArray, blockMembers, recordStart, recordBlocks.result())
  }
}
