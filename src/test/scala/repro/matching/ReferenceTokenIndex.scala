package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The token index as three Spark jobs, the reference [[TokenIndex]] is
  * checked against: the regex tokenizer in a UDF, `explode` and `distinct`
  * collect the dataset's distinct tokens; the driver sorts them into a
  * dictionary of string arrays, which is broadcast; a second pass
  * tokenizes every value again and looks each token up by binary search.
  */
object ReferenceTokenIndex {

  /** Whitespace tokenization by regex, lower-cased, empty tokens dropped. */
  def tokens(s: String): Set[String] =
    if (s == null) Set.empty
    else s.toLowerCase.split("\\s+").iterator.filter(_.nonEmpty).toSet

  /** Token -> ID over the sorted distinct tokens of a dataset, numbered as
    * [[Similarity.TokenDictionary]] numbers them.
    */
  final class TokenDictionary(long: Array[String], short: Array[String], unknown: Array[String])
      extends Serializable {
    def blockingKeys: Int = long.length

    def id(t: String): Int = {
      val l = find(long, t)
      if (l >= 0) l
      else {
        val s = find(short, t)
        if (s >= 0) long.length + s
        else {
          val u = find(unknown, t)
          if (u >= 0) -1 - u else throw new IllegalStateException(s"token '$t' is not in the dictionary")
        }
      }
    }

    private def find(sorted: Array[String], t: String): Int =
      java.util.Arrays.binarySearch(sorted.asInstanceOf[Array[AnyRef]], t)
  }

  def dictionary(distinct: Array[String], vocab: Option[Set[String]]): TokenDictionary = {
    val (known, unknown) = distinct.sorted.partition(t => vocab.forall(_.contains(t)))
    // Code points, not UTF-16 units, as Spark's `length` counts them.
    val (long, short) = known.partition(t => t.codePointCount(0, t.length) >= Blocking.shortestToken)
    new TokenDictionary(long, short, unknown)
  }

  /** The sorted IDs of the tokens of `s`; null stays null. */
  def encode(s: String, dict: TokenDictionary): Array[Int] =
    if (s == null) null
    else {
      val ids = tokens(s).iterator.map(dict.id).toArray
      java.util.Arrays.sort(ids)
      ids
    }

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
    val sc = records.sparkSession.sparkContext

    val tokensOf = udf((vs: Seq[String]) => vs.flatMap(tokens).distinct)
    val distinct = records.select(explode(tokensOf(array(attrs.map(a => col(a).cast("string")): _*)))).distinct()
      .collect().map(_.getString(0))
    val dict = sc.broadcast(dictionary(distinct, vocab))
    val keys = dict.value.blockingKeys

    // Per record: its ID (boxed, so a null reaches the driver), the scored
    // attributes' encodings and its distinct blocking keys, ascending.
    val rows = records.select(col("id").cast("long") +: attrs.map(a => col(a).cast("string")): _*).rdd.map { r =>
      val enc = Array.tabulate(attrs.length)(k => encode(r.getString(k + 1), dict.value))
      val blockingKeys = blockingCols.flatMap(k => Option(enc(k)).getOrElse(Array.emptyIntArray))
        .filter(t => t >= 0 && t < keys).distinct.sorted
      (r.get(0).asInstanceOf[java.lang.Long], scoredCols.map(enc), blockingKeys)
    }.collect()
    dict.destroy()

    rows.foreach { case (id, _, _) => require(id != null, "a record has a null id") }
    val sorted = rows.sortBy(_._1.longValue)
    val ids = sorted.map(_._1.longValue)
    var i = 1
    while (i < ids.length) {
      require(ids(i) != ids(i - 1), s"record id ${ids(i)} appears more than once")
      i += 1
    }
    val encoded = Array.tabulate(scoredCols.length)(k => sorted.map(_._2(k)))
    TokenIndex.postings(ids, encoded, sorted.map(_._3), keys, maxBlockSize)
  }
}
